import argparse
import builtins
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typelink.cli
import typelink.ingest
import typelink.model
from typelink.categories import CategoryVocab, expand_category
from typelink.cli import HandedTypes, build_parser, main, read_predictions
from typelink.diagnostics import DiagnosticLog
from typelink.ingest import (MentionExample, extract_examples, iter_articles,
                             load_category_assignments, read_examples, write_examples)
from typelink.linker import SCORING_MODES
from typelink.model import TrainConfig, TypingModel, predict_example
from typelink.prior import PriorTable, accumulate

from conftest import pipeline_argv


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_text(path, content):
    path.write_text(content, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pipeline_run(small_corpus, tmp_path_factory):
    """One full pipeline execution shared by the read-only CLI tests."""
    spec, paths = small_corpus
    workdir = tmp_path_factory.mktemp("pipeline_a")
    code = main(pipeline_argv(paths, workdir))
    assert code == 0
    return spec, paths, workdir


PIPELINE_FILES = ["prior.tsv", "eval_mentions_raw.jsonl", "vocab.txt",
                  "train_mentions.jsonl", "eval_mentions.jsonl", "model.json",
                  "predictions.jsonl", "report.json"]


class TestPipeline:
    def test_all_artifacts_written(self, pipeline_run):
        _, _, workdir = pipeline_run
        for name in PIPELINE_FILES:
            assert (workdir / name).exists(), name

    def test_report_content(self, pipeline_run):
        spec, _, workdir = pipeline_run
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        assert list(report) == ["linking_accuracy", "prior_accuracy", "gold_recall",
                                "typing_buckets", "per_category"]
        assert report["prior_accuracy"] == spec.expected_mfe_accuracy
        assert report["linking_accuracy"] >= spec.expected_mfe_accuracy
        assert report["gold_recall"] == 1.0
        labels = [row[0] for row in report["typing_buckets"]]
        assert labels == ["1-100", "101-500", "501-10000", "10001+", "total"]

    def test_prediction_rows_align_with_mentions(self, pipeline_run):
        _, _, workdir = pipeline_run
        predictions = read_predictions(str(workdir / "predictions.jsonl"))
        mentions = read_examples(str(workdir / "eval_mentions.jsonl"))
        assert len(predictions) == len(mentions)

    def test_prediction_key_order(self, pipeline_run):
        _, _, workdir = pipeline_run
        first = (workdir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()[0]
        doc = json.loads(first, object_pairs_hook=lambda pairs: pairs)
        assert [k for k, _ in doc] == ["mention", "chosen", "used_backoff", "scores"]

    def test_scores_sorted_descending(self, pipeline_run):
        _, _, workdir = pipeline_run
        for row in read_predictions(str(workdir / "predictions.jsonl")):
            values = [s for _, s in row["scores"]]
            assert values == sorted(values, reverse=True)

    def test_stage_composability(self, pipeline_run, capsys, tmp_path):
        """Running the stages one by one reproduces the pipeline bytes."""
        _, paths, workdir_a = pipeline_run
        b = tmp_path / "manual"
        b.mkdir()
        cats = paths["categories"]
        steps = [
            ["build-prior", "--articles", paths["prior_articles"],
             "--prior", f"{b}/prior.tsv"],
            ["ingest", "--articles", paths["eval_articles"], "--categories", cats,
             "--mentions", f"{b}/eval_mentions_raw.jsonl"],
            ["build-vocab", "--mentions", f"{b}/eval_mentions_raw.jsonl",
             "--prior", f"{b}/prior.tsv", "--categories", cats,
             "--vocab", f"{b}/vocab.txt"],
            ["ingest", "--articles", paths["train_articles"], "--categories", cats,
             "--mentions", f"{b}/train_mentions.jsonl", "--vocab", f"{b}/vocab.txt"],
            ["train", "--mentions", f"{b}/train_mentions.jsonl",
             "--vocab", f"{b}/vocab.txt", "--model", f"{b}/model.json",
             "--feature-dim", "4096", "--epochs", "3", "--seed", "13", "--quiet"],
            ["ingest", "--articles", paths["eval_articles"], "--categories", cats,
             "--mentions", f"{b}/eval_mentions.jsonl", "--vocab", f"{b}/vocab.txt",
             "--keep-uncategorized"],
            ["link", "--mentions", f"{b}/eval_mentions.jsonl",
             "--model", f"{b}/model.json", "--prior", f"{b}/prior.tsv",
             "--categories", cats, "--predictions", f"{b}/predictions.jsonl"],
            ["eval", "--mentions", f"{b}/eval_mentions.jsonl",
             "--predictions", f"{b}/predictions.jsonl",
             "--report", f"{b}/report.json", "--model", f"{b}/model.json",
             "--prior", f"{b}/prior.tsv", "--quiet"],
        ]
        for argv in steps:
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv[0], err)
        for name in PIPELINE_FILES:
            assert (b / name).read_bytes() == (workdir_a / name).read_bytes(), name

    def test_context_mode_is_set_at_train_and_read_from_the_model(self, pipeline_run, capsys,
                                                                  tmp_path, monkeypatch):
        _, paths, workdir_a = pipeline_run
        piped = tmp_path / "piped"
        code = main(pipeline_argv(paths, piped, **{"--context-mode": "sentence_only"}))
        assert code == 0
        header = json.loads((piped / "model.json").read_bytes().partition(b"\n")[0])
        assert header["context_mode"] == "sentence_only"
        default = json.loads((workdir_a / "model.json").read_bytes().partition(b"\n")[0])
        assert default["context_mode"] == "sentence_plus_first_doc_sentence"
        model, predictions, report = (str(tmp_path / name) for name in
                                      ("m.json", "p.jsonl", "r.json"))
        code, _, err = run_cli(
            ["train", "--mentions", str(piped / "train_mentions.jsonl"),
             "--vocab", str(piped / "vocab.txt"), "--model", model,
             "--context-mode", "sentence_only", "--feature-dim", "4096", "--epochs", "3",
             "--seed", "13", "--quiet"], capsys)
        assert code == 0, err
        # link and eval take no --context-mode; they must apply the model's.
        modes = []
        build_context = typelink.model.build_context
        monkeypatch.setattr(typelink.model, "build_context",
                            lambda ex, mode: modes.append(mode) or build_context(ex, mode))
        for argv in (
            ["link", "--mentions", str(piped / "eval_mentions.jsonl"), "--model", model,
             "--prior", str(piped / "prior.tsv"), "--categories", paths["categories"],
             "--predictions", predictions, "--quiet"],
            ["eval", "--mentions", str(piped / "eval_mentions.jsonl"),
             "--predictions", predictions, "--model", model,
             "--prior", str(piped / "prior.tsv"), "--report", report, "--quiet"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv[0], err)
        for name, path in (("model.json", model), ("predictions.jsonl", predictions),
                           ("report.json", report)):
            assert pathlib.Path(path).read_bytes() == (piped / name).read_bytes(), name
        assert modes and set(modes) == {"sentence_only"}

    @pytest.mark.parametrize("command", ["link", "eval"])
    def test_link_and_eval_take_no_context_mode(self, capsys, command):
        argv = {"link": ["link", "--mentions", "m", "--model", "x", "--prior", "p",
                         "--categories", "c", "--predictions", "o"],
                "eval": ["eval", "--mentions", "m", "--predictions", "o",
                         "--report", "r"]}[command]
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--context-mode", "sentence_only"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --context-mode" in capsys.readouterr().err

    def test_vocab_override_leaves_raw_mentions_unlabeled(self, pipeline_run, tmp_path):
        _, paths, workdir_a = pipeline_run
        vocab = tmp_path / "elsewhere" / "v.txt"
        vocab.parent.mkdir()
        workdir = tmp_path / "run"
        code = main(pipeline_argv(paths, workdir, **{"--vocab": str(vocab)}))
        assert code == 0
        assert not (workdir / "vocab.txt").exists()
        assert vocab.read_bytes() == (workdir_a / "vocab.txt").read_bytes()
        raw = (workdir / "eval_mentions_raw.jsonl").read_bytes()
        assert raw == (workdir_a / "eval_mentions_raw.jsonl").read_bytes()
        rows = read_examples(str(workdir / "eval_mentions_raw.jsonl"))
        assert rows and all(ex.categories is None for ex in rows)

    def test_huge_feature_dim_trains_and_links(self, pipeline_run, capsys, tmp_path):
        # A dense model would be categories x 2**43 x 8 bytes; the compact one
        # holds the columns of the training features only.
        _, paths, workdir = pipeline_run
        model = str(tmp_path / "m.json")
        n_cats = len((workdir / "vocab.txt").read_text(encoding="utf-8").splitlines())
        tracemalloc.start()
        try:
            train = run_cli(["train", "--mentions", str(workdir / "train_mentions.jsonl"),
                             "--vocab", str(workdir / "vocab.txt"), "--model", model,
                             "--feature-dim", str(2 ** 43), "--quiet"], capsys)
            linked = run_cli(["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
                              "--model", model, "--prior", str(workdir / "prior.tsv"),
                              "--categories", paths["categories"],
                              "--predictions", str(tmp_path / "p.jsonl"), "--quiet"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train[0] == 0 and linked[0] == 0, (train, linked)
        assert peak < 2 ** 27 < n_cats * 2 ** 43 * 8
        rows = read_predictions(str(tmp_path / "p.jsonl"))
        assert len(rows) == len(read_predictions(str(workdir / "predictions.jsonl")))
        assert all(row["chosen"] is not None for row in rows)

    def test_link_expands_only_the_candidates(self, pipeline_run, monkeypatch, capsys,
                                              tmp_path):
        _, paths, workdir = pipeline_run
        calls = []

        def counting(raw):
            calls.append(raw)
            return expand_category(raw)

        monkeypatch.setattr(typelink.ingest, "expand_category", counting)
        code, _, err = run_cli(
            ["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
             "--model", str(workdir / "model.json"), "--prior", str(workdir / "prior.tsv"),
             "--categories", paths["categories"], "--predictions", str(tmp_path / "p.jsonl"),
             "--quiet"], capsys)
        assert code == 0, err
        assert (tmp_path / "p.jsonl").read_bytes() == (workdir / "predictions.jsonl").read_bytes()
        table = PriorTable.load(str(workdir / "prior.tsv"))
        raw_by_entity: dict[str, set[str]] = {}
        for line in pathlib.Path(paths["categories"]).read_text(encoding="utf-8").splitlines():
            entity, _, raw = line.partition("\t")
            raw_by_entity.setdefault(entity, set()).add(raw)
        candidates = {entity for ex in read_examples(str(workdir / "eval_mentions.jsonl"))
                      for entity in table.candidates(ex.mention).entities()}
        assert len(candidates & set(raw_by_entity)) < len(raw_by_entity)
        assert sorted(calls) == sorted(raw for entity in candidates if entity in raw_by_entity
                                       for raw in raw_by_entity[entity])

    def test_train_is_reproducible_at_cli_level(self, pipeline_run, capsys, tmp_path):
        _, _, workdir = pipeline_run
        models = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            code, _, err = run_cli(
                ["train", "--mentions", str(workdir / "train_mentions.jsonl"),
                 "--vocab", str(workdir / "vocab.txt"), "--model", str(out),
                 "--feature-dim", "4096", "--epochs", "2", "--seed", "7", "--quiet"],
                capsys)
            assert code == 0, err
            models.append(out.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("given", [(), ("--prior",), ("--model",), ("--prior", "--model")],
                             ids=["bare", "prior", "model", "prior_model"])
    def test_eval_prints_report_unless_quiet(self, pipeline_run, capsys, tmp_path, given):
        """One line per number of the report, in its order, each to four places."""
        _, _, workdir = pipeline_run
        inputs = {"--prior": workdir / "prior.tsv", "--model": workdir / "model.json"}
        argv = ["eval", "--mentions", str(workdir / "eval_mentions.jsonl"),
                "--predictions", str(workdir / "predictions.jsonl"),
                "--report", str(tmp_path / "r.json"),
                *(arg for flag in given for arg in (flag, str(inputs[flag])))]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        expected = [f"linking_accuracy {report['linking_accuracy']:.4f}"]
        if "--prior" in given:
            expected += [f"prior_accuracy   {report['prior_accuracy']:.4f}",
                         f"gold_recall      {report['gold_recall']:.4f}"]
        if "--model" in given:
            expected.append("      bucket        P        R       F1    cats")
            expected += [f"{label:>12}  {p:7.4f}  {r:7.4f}  {f1:7.4f}  {n:6d}"
                         for label, p, r, f1, n in report["typing_buckets"]]
        assert out.splitlines() == expected
        code, out, err = run_cli(argv + ["--quiet"], capsys)
        assert (code, out, err) == (0, "", "")


# One train article, and one eval article whose second mention has no
# candidate in the prior: link leaves it unscored and eval predicts it.
HAND_CORPUS = {"train_articles": "T1\nx [[A|aa]] y .\nmore [[B|bb]] text .\n%%%%\n",
               "eval_articles": "E1\nq [[A|aa]] r . s [[A|zzz]] t .\n%%%%\n",
               "categories": "A\tSimple\nB\tOther\n"}

# pipeline's output flags and their files' names in its --workdir.
OUTPUT_FLAGS = {"--prior": "prior.tsv", "--vocab": "vocab.txt",
                "--mentions": "train_mentions.jsonl", "--eval-mentions": "eval_mentions.jsonl",
                "--model": "model.json", "--predictions": "predictions.jsonl",
                "--report": "report.json"}


def corpus_paths(corpus, small_corpus, tmp_path):
    if corpus == "small":
        return small_corpus[1]
    return {"prior_articles": None, **{name: write_text(tmp_path / name, text)
                                       for name, text in HAND_CORPUS.items()}}


# The stage functions `pipeline` calls, by their module attribute.
STAGES = ("stage_build_prior", "stage_ingest", "stage_build_vocab", "stage_train",
          "stage_link", "stage_eval")


def record_stages(monkeypatch):
    """Wrap each of `STAGES`; the list returned gets, as each call starts, the
    stage's name, its `args.handoff` and the sorted paths in that handoff."""
    calls = []
    for name in STAGES:
        def recording(args, name=name, stage=getattr(typelink.cli, name)):
            calls.append((name, args.handoff, sorted(args.handoff)))
            return stage(args)
        monkeypatch.setattr(typelink.cli, name, recording)
    return calls


def run_stages(paths, out, capsys, settings):
    """The README's stage commands on `paths`, writing into `out`, each given
    the `settings` (flag -> value) its subcommand takes."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    cats = paths["categories"]
    steps = [
        ["build-prior", "--articles", paths["prior_articles"] or paths["train_articles"],
         "--prior", f"{out}/prior.tsv"],
        ["ingest", "--articles", paths["eval_articles"], "--categories", cats,
         "--mentions", f"{out}/eval_mentions_raw.jsonl"],
        ["build-vocab", "--mentions", f"{out}/eval_mentions_raw.jsonl",
         "--prior", f"{out}/prior.tsv", "--categories", cats, "--vocab", f"{out}/vocab.txt"],
        ["ingest", "--articles", paths["train_articles"], "--categories", cats,
         "--mentions", f"{out}/train_mentions.jsonl", "--vocab", f"{out}/vocab.txt"],
        ["train", "--mentions", f"{out}/train_mentions.jsonl", "--vocab", f"{out}/vocab.txt",
         "--model", f"{out}/model.json"],
        ["ingest", "--articles", paths["eval_articles"], "--categories", cats,
         "--mentions", f"{out}/eval_mentions.jsonl", "--vocab", f"{out}/vocab.txt",
         "--keep-uncategorized"],
        ["link", "--mentions", f"{out}/eval_mentions.jsonl", "--model", f"{out}/model.json",
         "--prior", f"{out}/prior.tsv", "--categories", cats,
         "--predictions", f"{out}/predictions.jsonl"],
        ["eval", "--mentions", f"{out}/eval_mentions.jsonl",
         "--predictions", f"{out}/predictions.jsonl", "--report", f"{out}/report.json",
         "--model", f"{out}/model.json", "--prior", f"{out}/prior.tsv"],
    ]
    for argv in steps:
        takes = {opt for a in sub.choices[argv[0]]._actions for opt in a.option_strings}
        for flag, value in settings.items():
            if flag in takes:
                argv += [flag, value]
        code, _, err = run_cli([*argv, "--quiet"], capsys)
        assert code == 0, (argv[0], err)


class TestHandoff:
    """`pipeline` hands every mention file, the model and link's work to their
    readers in memory; the stage commands read every input from its file."""

    @pytest.mark.parametrize("corpus, settings", [
        ("small", {"--context-mode": "sentence_only"}),
        ("small", {"--scoring-mode": "logodds"}),
        ("hand", {}),
    ])
    def test_pipeline_writes_the_bytes_of_the_stage_commands(
            self, small_corpus, capsys, tmp_path, corpus, settings):
        paths = corpus_paths(corpus, small_corpus, tmp_path)
        settings = {"--feature-dim": "4096", "--epochs": "3", "--seed": "13", **settings}
        assert main(pipeline_argv(paths, tmp_path / "piped", **settings)) == 0
        (tmp_path / "staged").mkdir()
        run_stages(paths, tmp_path / "staged", capsys, settings)
        for name in PIPELINE_FILES:
            assert (tmp_path / "piped" / name).read_bytes() == \
                (tmp_path / "staged" / name).read_bytes(), name
        if corpus == "hand":
            rows = read_predictions(str(tmp_path / "piped" / "predictions.jsonl"))
            assert [row["chosen"] for row in rows] == ["A", None]

    @pytest.mark.parametrize("corpus", ["small", "hand"])
    def test_each_eval_mention_is_predicted_once_and_no_file_is_read_back(
            self, small_corpus, monkeypatch, tmp_path, corpus):
        paths = corpus_paths(corpus, small_corpus, tmp_path)
        calls = {"predict": 0, "read_predictions": 0}
        loads, reads = [], []
        predict = typelink.model.predict

        def counting_predict(model, features):
            calls["predict"] += 1
            return predict(model, features)

        def counting_read_predictions(path):
            calls["read_predictions"] += 1
            return read_predictions(path)

        load = TypingModel.load.__func__
        monkeypatch.setattr(typelink.model, "predict", counting_predict)
        monkeypatch.setattr(TypingModel, "load",
                            classmethod(lambda cls, path: loads.append(path) or load(cls, path)))
        monkeypatch.setattr(typelink.cli, "read_examples",
                            lambda path: reads.append(path) or read_examples(path))
        monkeypatch.setattr(typelink.cli, "read_predictions", counting_read_predictions)
        work = tmp_path / "work"
        assert main(pipeline_argv(paths, work)) == 0
        n_eval = len(read_examples(str(work / "eval_mentions.jsonl")))
        assert n_eval > 0
        assert calls == {"predict": n_eval, "read_predictions": 0}
        # Every mention file and the model reach their reader in memory.
        assert loads == []
        assert reads == []

    def test_a_stage_finds_only_what_it_takes_and_eval_leaves_nothing(
            self, small_corpus, monkeypatch, tmp_path):
        calls = record_stages(monkeypatch)
        work = tmp_path / "work"
        assert main(pipeline_argv(small_corpus[1], work)) == 0
        # build-vocab's types stay in the handoff until link, their last reader,
        # takes them; the train ingest and train leave them there.
        cats = small_corpus[1]["categories"]
        w = lambda *names: sorted(str(work / name) for name in names)  # noqa: E731
        assert [(name, held) for name, _, held in calls] == [
            ("stage_build_prior", []),
            ("stage_ingest", []),
            ("stage_build_vocab", w("eval_mentions_raw.jsonl")),
            ("stage_ingest", [cats]),
            ("stage_train", sorted([cats, *w("train_mentions.jsonl")])),
            ("stage_ingest", sorted([cats, *w("model.json")])),
            ("stage_link", sorted([cats, *w("model.json", "eval_mentions.jsonl")])),
            ("stage_eval", w("eval_mentions.jsonl", "prior.tsv", "model.json",
                             "predictions.jsonl")),
        ]
        handoff = calls[0][1]
        assert all(each is handoff for _, each, _ in calls)  # one dict for the run
        assert handoff == {}

    def test_every_output_flag_overridden_writes_the_default_bytes(self, pipeline_run,
                                                                   tmp_path):
        _, paths, workdir_a = pipeline_run
        out = tmp_path / "out"
        out.mkdir()
        work = tmp_path / "work"
        flags = {flag: str(out / f"x_{name}") for flag, name in OUTPUT_FLAGS.items()}
        assert main(pipeline_argv(paths, work, **flags)) == 0
        assert [p.name for p in work.iterdir()] == ["eval_mentions_raw.jsonl"]
        assert (work / "eval_mentions_raw.jsonl").read_bytes() == \
            (workdir_a / "eval_mentions_raw.jsonl").read_bytes()
        for name in OUTPUT_FLAGS.values():
            assert (out / f"x_{name}").read_bytes() == (workdir_a / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["link", "pipeline"])
    def test_only_pipeline_keeps_the_posteriors_of_link(self, pipeline_run, monkeypatch,
                                                        capsys, tmp_path, command):
        """A link command holds one posterior at a time; pipeline's link keeps
        each for eval."""
        _, paths, workdir = pipeline_run
        slots, seen, live = [], [], []
        stage_link, link = typelink.cli.stage_link, typelink.cli.link

        def recording_stage(args):
            slots.append(args.handoff)
            return stage_link(args)

        def recording_link(posterior, *args, **kwargs):
            live.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(posterior))
            return link(posterior, *args, **kwargs)

        monkeypatch.setattr(typelink.cli, "stage_link", recording_stage)
        monkeypatch.setattr(typelink.cli, "link", recording_link)
        if command == "link":
            argv = ["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
                    "--model", str(workdir / "model.json"), "--prior", str(workdir / "prior.tsv"),
                    "--categories", paths["categories"],
                    "--predictions", str(tmp_path / "predictions.jsonl"), "--quiet"]
        else:
            argv = pipeline_argv(paths, tmp_path)
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert (tmp_path / "predictions.jsonl").read_bytes() == \
            (workdir / "predictions.jsonl").read_bytes()
        assert len(live) > 1
        if command == "link":
            assert slots == [None]
            assert set(live) == {0}
        else:
            assert slots == [{}]  # eval has taken everything link handed over
            assert live == list(range(len(live)))


class TestErrorCodes:
    def err_code(self, argv, capsys, expected):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"error: {expected}:" in err

    def test_missing_model(self, pipeline_run, capsys, tmp_path):
        _, paths, workdir = pipeline_run
        self.err_code(["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
                       "--model", str(tmp_path / "nope.json"),
                       "--prior", str(workdir / "prior.tsv"),
                       "--categories", paths["categories"],
                       "--predictions", str(tmp_path / "p.jsonl")],
                      capsys, "MODEL_NOT_FOUND")

    def test_missing_articles(self, capsys, tmp_path):
        self.err_code(["build-prior", "--articles", str(tmp_path / "nope.txt"),
                       "--prior", str(tmp_path / "prior.tsv")],
                      capsys, "ARTICLES_NOT_FOUND")

    def test_missing_categories(self, capsys, tmp_path):
        articles = write_text(tmp_path / "a.txt", "T\nx .\n%%%%\n")
        self.err_code(["ingest", "--articles", articles,
                       "--categories", str(tmp_path / "nope.tsv"),
                       "--mentions", str(tmp_path / "m.jsonl")],
                      capsys, "CATEGORIES_NOT_FOUND")

    def test_missing_mentions(self, capsys, tmp_path):
        vocab = write_text(tmp_path / "v.txt", "a\n")
        self.err_code(["train", "--mentions", str(tmp_path / "nope.jsonl"),
                       "--vocab", vocab, "--model", str(tmp_path / "m.json")],
                      capsys, "MENTIONS_NOT_FOUND")

    def test_missing_vocab(self, capsys, tmp_path):
        mentions = write_text(tmp_path / "m.jsonl", "")
        self.err_code(["train", "--mentions", mentions,
                       "--vocab", str(tmp_path / "nope.txt"),
                       "--model", str(tmp_path / "m.json")],
                      capsys, "VOCAB_NOT_FOUND")

    def test_missing_prior(self, capsys, tmp_path):
        mentions = write_text(tmp_path / "m.jsonl", "")
        cats = write_text(tmp_path / "c.tsv", "A\tx\n")
        self.err_code(["build-vocab", "--mentions", mentions,
                       "--prior", str(tmp_path / "nope.tsv"),
                       "--categories", cats, "--vocab", str(tmp_path / "v.txt")],
                      capsys, "PRIOR_NOT_FOUND")

    def test_missing_predictions(self, capsys, tmp_path):
        mentions = write_text(tmp_path / "m.jsonl", "")
        self.err_code(["eval", "--mentions", mentions,
                       "--predictions", str(tmp_path / "nope.jsonl"),
                       "--report", str(tmp_path / "r.json")],
                      capsys, "PREDICTIONS_NOT_FOUND")

    def test_partial_sampling_flags(self, capsys, tmp_path):
        articles = write_text(tmp_path / "a.txt", "T\nx [[A|aa]] .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tSimple\n")
        code, _, err = run_cli(
            ["ingest", "--articles", articles, "--categories", cats,
             "--mentions", str(tmp_path / "m.jsonl"), "--sample-train", "1"],
            capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert "--sample-dev" in err

    @pytest.mark.parametrize("sampling", [
        ["--sample-train", "-1", "--sample-dev", "1"],
        ["--sample-train", "5", "--sample-dev", "5"],
        ["--sample-train", "1", "--sample-dev", "0", "--dev-out", "d.jsonl"],
    ], ids=["negative_size", "more_than_available", "partial_flags"])
    def test_rejected_sampling_writes_nothing(self, capsys, tmp_path, monkeypatch, sampling):
        articles = write_text(tmp_path / "a.txt", "T\nx [[A|aa]] .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tSimple\n")
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        if "--dev-out" not in sampling:
            sampling = [*sampling, "--train-out", "t.jsonl", "--dev-out", "d.jsonl"]
        code, _, err = run_cli(["ingest", "--articles", articles, "--categories", cats,
                                "--mentions", "m.jsonl", *sampling], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert list(out.iterdir()) == []

    def test_mention_count_mismatch(self, capsys, tmp_path):
        ex = MentionExample(tokens=["aa"], span=(0, 1), entity="A")
        mentions = tmp_path / "m.jsonl"
        write_examples(str(mentions), [ex, dataclasses.replace(ex)])
        predictions = write_text(
            tmp_path / "p.jsonl",
            '{"mention":"aa","chosen":"A","used_backoff":false,"scores":[]}\n')
        code, _, err = run_cli(
            ["eval", "--mentions", str(mentions), "--predictions", predictions,
             "--report", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err

    def test_mention_name_mismatch(self, capsys, tmp_path):
        ex = MentionExample(tokens=["aa"], span=(0, 1), entity="A")
        mentions = tmp_path / "m.jsonl"
        write_examples(str(mentions), [ex])
        predictions = write_text(
            tmp_path / "p.jsonl",
            '{"mention":"bb","chosen":"A","used_backoff":false,"scores":[]}\n')
        code, _, err = run_cli(
            ["eval", "--mentions", str(mentions), "--predictions", predictions,
             "--report", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err

    @pytest.mark.parametrize("row", [
        '[1,2]', '"hi"', '{"run":["aa"],"first":null,"examples":[[0,0,1,0,0,2,"A",null,null]]}',
        '{"run":["aa"],"first":null,"examples":[[0,0,1,0,0,1,"A",null]]}',
        '{"run":["aa"],"first":null,"examples":[[0,0,1,0,0.0,1.0,"A",null,null]]}',
        '{"run":5,"first":null,"examples":[[0,0,1,0,0,1,"A",null,null]]}',
        '{"run":["aa"],"first":null,"examples":[[0,0,1,0,0,1,"A","xy",null]]}',
    ], ids=["list", "string", "span_int", "span_short", "span_floats", "tokens_int",
            "categories_string"])
    @pytest.mark.parametrize("command", ["link", "train"])
    def test_malformed_mention_row_names_its_file_and_line(self, pipeline_run, capsys,
                                                          tmp_path, command, row):
        _, paths, workdir = pipeline_run
        header = '{"format":"typelink-mentions","version":2}'
        mentions = write_text(tmp_path / "m.jsonl", f"{header}\n{row}\n")
        out = tmp_path / "out"
        out.mkdir()
        if command == "link":
            argv = ["link", "--model", str(workdir / "model.json"),
                    "--prior", str(workdir / "prior.tsv"), "--categories", paths["categories"],
                    "--predictions", str(out / "p.jsonl")]
        else:
            argv = ["train", "--vocab", write_text(tmp_path / "v.txt", "x\ny\n"),
                    "--model", str(out / "model.json"), "--quiet"]
        code, _, err = run_cli([*argv, "--mentions", mentions], capsys)
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {mentions}:2: "), err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("first_line", [
        '{"mention":"aa","tokens":["aa"],"span":[0,1],"entity":"A"}',
        '{"format":"typelink-mentions","version":3}',
    ], ids=["old_format", "unknown_version"])
    def test_mention_file_without_its_header_is_refused(self, capsys, tmp_path, first_line):
        mentions = write_text(tmp_path / "m.jsonl", f"{first_line}\n")
        code, _, err = run_cli(
            ["build-vocab", "--mentions", mentions, "--prior", write_text(tmp_path / "p.tsv", ""),
             "--categories", write_text(tmp_path / "c.tsv", ""),
             "--vocab", str(tmp_path / "v.txt")], capsys)
        assert code == 2
        assert err == (f"error: INVALID_INPUT: {mentions}:1: expected the header line "
                       '{"format":"typelink-mentions","version":2}\n')
        assert not (tmp_path / "v.txt").exists()

    def test_non_object_prediction_row_names_its_file_and_line(self, capsys, tmp_path):
        ex = MentionExample(tokens=["aa"], span=(0, 1), entity="A")
        mentions = tmp_path / "m.jsonl"
        write_examples(str(mentions), [ex])
        predictions = write_text(tmp_path / "p.jsonl", "[1]\n")
        code, _, err = run_cli(
            ["eval", "--mentions", str(mentions), "--predictions", predictions,
             "--report", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {predictions}:1: "), err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("row", [
        '{"mention":"aa","chosen":["A"],"used_backoff":"x","scores":5}',
        '{"mention":"aa","chosen":5,"used_backoff":false,"scores":[]}',
        '{"mention":"aa","chosen":"A","used_backoff":1,"scores":[]}',
        '{"mention":"aa","chosen":"A","used_backoff":false,"scores":5}',
        '{"mention":"aa","chosen":"A","used_backoff":false,"scores":[["A"]]}',
        '{"mention":"aa","chosen":"A","used_backoff":false,"scores":[["A","1"]]}',
        '{"mention":"aa","chosen":"A","used_backoff":false,"scores":[[1,0.5]]}',
        '{"mention":"aa","chosen":"A","used_backoff":false,"scores":[["A",true]]}',
        '{"mention":"aa","chosen":"A","used_backoff":false}',
        '{"mention":5,"chosen":"A","used_backoff":false,"scores":[]}',
        '{"mention":null,"chosen":"A","used_backoff":false,"scores":[]}',
        '{"chosen":"A","used_backoff":false,"scores":[]}',
    ], ids=["all", "chosen_int", "backoff_int", "scores_int", "pair_short",
            "score_string", "entity_int", "score_bool", "scores_missing",
            "mention_int", "mention_null", "mention_missing"])
    def test_mistyped_prediction_row_names_its_file_and_line(self, capsys, tmp_path, row):
        ex = MentionExample(tokens=["aa"], span=(0, 1), entity="A")
        mentions = tmp_path / "m.jsonl"
        write_examples(str(mentions), [ex, ex])
        good = '{"mention":"aa","chosen":null,"used_backoff":true,"scores":[["A",1],["B",0.5]]}'
        predictions = write_text(tmp_path / "p.jsonl", f"{good}\n{row}\n")
        code, _, err = run_cli(
            ["eval", "--mentions", str(mentions), "--predictions", predictions,
             "--report", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {predictions}:2: "), err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["build-prior", "link", "ingest"])
    def test_output_in_a_missing_directory_is_refused_before_any_input_is_read(
            self, capsys, tmp_path, monkeypatch, command):
        junk = write_text(tmp_path / "junk", "{not json\n")

        def must_not_run(*args, **kwargs):
            raise AssertionError("an input was read before the outputs were checked")

        for name in ("iter_articles", "read_examples"):
            monkeypatch.setattr(typelink.cli, name, must_not_run)
        out = tmp_path / "nodir" / "out"
        argv = {
            "build-prior": ["build-prior", "--articles", junk, "--prior", str(out)],
            "link": ["link", "--mentions", junk, "--model", junk, "--prior", junk,
                     "--categories", junk, "--predictions", str(out)],
            "ingest": ["ingest", "--articles", junk, "--categories", junk,
                       "--mentions", str(tmp_path / "m.jsonl"), "--sample-train", "1",
                       "--sample-dev", "0", "--train-out", str(tmp_path / "t.jsonl"),
                       "--dev-out", str(out)],
        }[command]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"error: IO_ERROR: no directory for output {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["junk"]

    def test_pipeline_outputs_may_go_in_the_workdir_it_creates(self, small_corpus, tmp_path):
        _, paths = small_corpus
        workdir = tmp_path / "new" / "work"
        args = build_parser().parse_args(
            pipeline_argv(paths, workdir, **{"--report": str(workdir / "r.json")}))
        typelink.cli.check_args(args)
        args = build_parser().parse_args(
            pipeline_argv(paths, workdir, **{"--report": str(tmp_path / "new" / "r.json")}))
        with pytest.raises(typelink.cli.CliError):
            typelink.cli.check_args(args)

    # Each case: the argv, the two flags refused, the file they both name.
    @pytest.mark.parametrize("case", [
        "prior-is-categories", "prior-default-is-categories", "mentions-is-eval-mentions",
        "raw-is-eval-mentions", "build-prior-writes-its-articles", "report-links-to-predictions",
        "predictions-is-a-hard-link-to-mentions", "relative-and-absolute"])
    def test_an_output_that_is_another_output_or_an_input_is_refused(
            self, small_corpus, capsys, tmp_path, monkeypatch, case):
        _, paths = small_corpus
        inputs = tmp_path / "in"
        inputs.mkdir()
        cats = write_text(inputs / "categories.tsv",
                          pathlib.Path(paths["categories"]).read_text(encoding="utf-8"))
        work = tmp_path / "work"
        mentions = write_text(inputs / "m.jsonl", "")
        if case == "prior-is-categories":
            argv = pipeline_argv({**paths, "categories": cats}, work, **{"--prior": cats})
            flags, same = ("--prior", "--categories"), cats
        elif case == "prior-default-is-categories":
            work = inputs
            argv = pipeline_argv({**paths, "categories": cats}, work)
            cats = write_text(inputs / "prior.tsv", "")
            argv[argv.index("--categories") + 1] = cats
            flags, same = ("--prior", "--categories"), cats
        elif case == "mentions-is-eval-mentions":
            same = str(work / "m.jsonl")
            argv = pipeline_argv(paths, work, **{"--mentions": same, "--eval-mentions": same})
            flags = ("--mentions", "--eval-mentions")
        elif case == "raw-is-eval-mentions":
            same = str(work / "eval_mentions_raw.jsonl")
            argv = pipeline_argv(paths, work, **{"--eval-mentions": same})
            flags = ("--eval-mentions", "--workdir")
        elif case == "build-prior-writes-its-articles":
            same = write_text(inputs / "a.txt", "T\nx [[A|aa]] y .\n%%%%\n")
            argv = ["build-prior", "--articles", same, "--prior", same]
            flags = ("--prior", "--articles")
        elif case == "report-links-to-predictions":
            same = write_text(inputs / "p.jsonl", "")
            (inputs / "r.json").symlink_to(same)
            argv = ["eval", "--mentions", mentions, "--predictions", same,
                    "--report", str(inputs / "r.json")]
            flags = ("--report", "--predictions")
            same = str(inputs / "r.json")
        elif case == "predictions-is-a-hard-link-to-mentions":
            (inputs / "p.jsonl").hardlink_to(mentions)
            same = str(inputs / "p.jsonl")
            argv = ["link", "--mentions", mentions, "--model", cats, "--prior", cats,
                    "--categories", cats, "--predictions", same]
            flags = ("--predictions", "--mentions")
        else:
            monkeypatch.chdir(inputs)
            argv = ["ingest", "--articles", cats, "--categories", cats,
                    "--vocab", str(inputs / "v.txt"), "--mentions", "./v.txt"]
            write_text(inputs / "v.txt", "")
            flags, same = ("--mentions", "--vocab"), "./v.txt"
        before = {p.name: p.read_bytes() for p in inputs.iterdir()}
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"error: INVALID_INPUT: {flags[0]} and {flags[1]} name one file: {same}\n"
        assert {p.name: p.read_bytes() for p in inputs.iterdir()} == before
        assert work == inputs or not work.exists()

    def link_with_model(self, pipeline_run, capsys, tmp_path, corrupt):
        """Run link on a corrupted copy of the pipeline's model file."""
        _, paths, workdir = pipeline_run
        head, _, body = (workdir / "model.json").read_bytes().partition(b"\n")
        header, body = corrupt(json.loads(head), body)
        bad = tmp_path / "bad_model.json"
        bad.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        return run_cli(
            ["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
             "--model", str(bad), "--prior", str(workdir / "prior.tsv"),
             "--categories", paths["categories"],
             "--predictions", str(tmp_path / "p.jsonl")], capsys)

    def test_corrupt_model_version(self, pipeline_run, capsys, tmp_path):
        code, _, err = self.link_with_model(pipeline_run, capsys, tmp_path,
                                            lambda h, b: ({**h, "format_version": 99}, b))
        assert code == 2
        assert "error: INVALID_INPUT:" in err

    @pytest.mark.parametrize("version, message", [
        (2, "unsupported model format version: 2\n"),
        (3, "unsupported model format version: 3\n"),
        (4, "unsupported model format version: 4\n"),
    ], ids=["2", "3", "4"])
    def test_older_model_version_must_be_retrained(self, pipeline_run, capsys, tmp_path,
                                                   version, message):
        def as_older(header, body):
            if version == 2:  # version 2 headers lack context_mode
                header = {k: v for k, v in header.items() if k != "context_mode"}
            return {**header, "format_version": version}, body

        code, _, err = self.link_with_model(pipeline_run, capsys, tmp_path, as_older)
        assert code == 2
        assert err == f"error: INVALID_INPUT: {tmp_path / 'bad_model.json'}:1: {message}"

    @staticmethod
    def set_padding_bit(header, body):
        """Set the last bit of the first stored row's bitmap, past the last category."""
        n_cats = len(header["vocab"])
        assert n_cats % 8, "the bitmap's last byte holds no padding bit"
        at = 8 * header["columns"] + 4 * n_cats + math.ceil(n_cats / 8) - 1
        return header, body[:at] + bytes([body[at] | 0x80]) + body[at + 1:]

    @pytest.mark.parametrize("corrupt", [
        lambda h, b: (h, b[:-8] + struct.pack("<d", math.nan)),
        lambda h, b: (h, b[:-1]),
        lambda h, b: (h, b + b"\0"),
        lambda h, b: (h, b[:-4]),
        lambda h, b: (h, b + b"\0" * 4),
        set_padding_bit,
        lambda h, b: ({k: v for k, v in h.items() if k != "vocab"}, b),
        lambda h, b: ({**h, "columns": -1}, b),
        lambda h, b: ({**h, "D": 1}, b),
        lambda h, b: ({k: v for k, v in h.items() if k != "context_mode"}, b),
        lambda h, b: ({**h, "context_mode": "whole_document"}, b),
    ], ids=["nan_weight", "truncated", "trailing_byte", "values_short", "values_long",
            "bitmap_padding_bit", "missing_key",
            "negative_columns", "column_id_beyond_D", "missing_context_mode",
            "unknown_context_mode"])
    def test_corrupt_model_file(self, pipeline_run, capsys, tmp_path, corrupt):
        code, _, err = self.link_with_model(pipeline_run, capsys, tmp_path, corrupt)
        assert code == 2
        assert f"error: INVALID_INPUT: {tmp_path / 'bad_model.json'}" in err
        assert "Traceback" not in err

    def test_failed_link_leaves_existing_predictions(self, pipeline_run, capsys, tmp_path):
        _, paths, workdir = pipeline_run
        mentions = write_text(tmp_path / "m.jsonl", "{not json\n")
        predictions = write_text(tmp_path / "p.jsonl", "earlier output\n")
        code, _, err = run_cli(
            ["link", "--mentions", mentions, "--model", str(workdir / "model.json"),
             "--prior", str(workdir / "prior.tsv"), "--categories", paths["categories"],
             "--predictions", predictions], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert (tmp_path / "p.jsonl").read_text(encoding="utf-8") == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "p.jsonl"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_training_divergence_reported(self, pipeline_run, capsys, tmp_path):
        _, _, workdir = pipeline_run
        code, _, err = run_cli(
            ["train", "--mentions", str(workdir / "train_mentions.jsonl"),
             "--vocab", str(workdir / "vocab.txt"),
             "--model", str(tmp_path / "m.json"),
             "--feature-dim", "4096", "--epochs", "3",
             "--l2-penalty", "1e300", "--quiet"], capsys)
        assert code == 2
        assert "error: TRAINING_DIVERGED:" in err

    @pytest.mark.parametrize("settings", [["--learning-rate", "1e40", "--batch-size", "100000"],
                                          ["--learning-rate", "1e40", "--batch-size", "8"],
                                          ["--l2-penalty", "1e300"]],
                             ids=["lr_one_batch", "lr_batches_of_8", "l2"])
    def test_diverging_train_prints_only_its_error_line(self, pipeline_run, tmp_path,
                                                        settings):
        # A subprocess, so a numpy warning reaches stderr as a user would see it.
        _, _, workdir = pipeline_run
        proc = subprocess.run(
            [sys.executable, "-m", "typelink", "train",
             "--mentions", str(workdir / "train_mentions.jsonl"),
             "--vocab", str(workdir / "vocab.txt"), "--model", str(tmp_path / "m.json"),
             "--feature-dim", "4096", "--epochs", "3", *settings, "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: TRAINING_DIVERGED: "), lines
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag,value", [("--learning-rate", "nan"),
                                            ("--learning-rate", "inf"),
                                            ("--l2-penalty", "nan"),
                                            ("--seed", "-1")])
    def test_non_finite_training_setting_rejected_before_featurizing(
            self, pipeline_run, capsys, tmp_path, monkeypatch, flag, value):
        _, _, workdir = pipeline_run
        # Reading the mentions would now fail, so the setting must be refused first.
        monkeypatch.setattr(typelink.cli, "read_examples", None)
        code, _, err = run_cli(
            ["train", "--mentions", str(workdir / "train_mentions.jsonl"),
             "--vocab", str(workdir / "vocab.txt"), "--model", str(tmp_path / "m.json"),
             flag, value, "--quiet"], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert flag[2:].replace("-", "_") in err  # the message names the setting
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag,value", [("--tie-eps", "nan"), ("--tie-eps", "-1"),
                                            ("--tie-eps", "inf"), ("--backoff-min-cats", "-5"),
                                            ("--threshold", "2")])
    def test_nonsensical_link_setting_rejected_before_reading(
            self, pipeline_run, capsys, tmp_path, monkeypatch, flag, value):
        _, paths, workdir = pipeline_run
        monkeypatch.setattr(typelink.cli, "read_examples", None)
        code, _, err = run_cli(
            ["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
             "--model", str(workdir / "model.json"), "--prior", str(workdir / "prior.tsv"),
             "--categories", paths["categories"],
             "--predictions", str(tmp_path / "p.jsonl"), flag, value], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [
        ("--typing-threshold", "nan"), ("--typing-threshold", "2"),
        ("--typing-threshold", "-0.5"), ("--threshold", "2"),
    ], ids=["nan", "2", "-0.5", "--threshold-2"])
    def test_typing_threshold_outside_unit_interval_rejected_before_reading(
            self, pipeline_run, capsys, tmp_path, monkeypatch, flag, value):
        _, _, workdir = pipeline_run
        monkeypatch.setattr(typelink.cli, "read_examples", None)
        code, _, err = run_cli(
            ["eval", "--mentions", str(workdir / "eval_mentions.jsonl"),
             "--predictions", str(workdir / "predictions.jsonl"),
             "--model", str(workdir / "model.json"), "--prior", str(workdir / "prior.tsv"),
             "--report", str(tmp_path / "r.json"), flag, value, "--quiet"], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [("--tie-eps", "nan"), ("--backoff-min-cats", "-1"),
                                            ("--typing-threshold", "2"),
                                            ("--learning-rate", "inf"), ("--threshold", "2"),
                                            ("--vocab-size", "0"), ("--seed", "-1"),
                                            ("--workers", "0"), ("--workers", "-3"),
                                            ("--workers", "2")])
    def test_pipeline_checks_later_stage_settings_first(self, pipeline_run, capsys, tmp_path,
                                                        flag, value):
        _, paths, _ = pipeline_run
        code, _, err = run_cli(pipeline_argv(paths, tmp_path / "work", **{flag: value}), capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert not (tmp_path / "work").exists()

    # The corpus has prior articles, so build-prior could run without --articles.
    @pytest.mark.parametrize("flag", ["--eval-articles", "--articles"])
    def test_pipeline_with_a_missing_input_creates_no_workdir(self, small_corpus, capsys,
                                                             tmp_path, flag):
        _, paths = small_corpus
        missing = str(tmp_path / "nope.txt")
        code, _, err = run_cli(pipeline_argv(paths, tmp_path / "work", **{flag: missing}), capsys)
        assert code == 2
        assert err == f"error: ARTICLES_NOT_FOUND: {missing}\n"
        assert not (tmp_path / "work").exists()

    def test_build_vocab_threshold_checked_without_any_mention(self, capsys, tmp_path):
        mentions = write_text(tmp_path / "m.jsonl", "")
        prior = write_text(tmp_path / "prior.tsv", "aa\tA\t1\n")
        cats = write_text(tmp_path / "c.tsv", "A\tx\n")
        code, _, err = run_cli(["build-vocab", "--mentions", mentions, "--prior", prior,
                                "--categories", cats, "--vocab", str(tmp_path / "v.txt"),
                                "--threshold", "-1"], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
        assert not (tmp_path / "v.txt").exists()

    def test_ingest_missing_vocab_found_before_parsing(self, capsys, tmp_path, monkeypatch):
        articles = write_text(tmp_path / "a.txt", "T\nx [[A|aa]] .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tSimple\n")

        def iter_articles(*args, **kwargs):
            raise AssertionError("articles parsed before the inputs were checked")

        monkeypatch.setattr(typelink.cli, "iter_articles", iter_articles)
        code, _, err = run_cli(["ingest", "--articles", articles, "--categories", cats,
                                "--vocab", str(tmp_path / "nope.txt"),
                                "--mentions", str(tmp_path / "m.jsonl")], capsys)
        assert code == 2
        assert err == f"error: VOCAB_NOT_FOUND: {tmp_path / 'nope.txt'}\n"
        assert not (tmp_path / "m.jsonl").exists()

    def test_os_errors_are_reported_as_io_error(self, pipeline_run, capsys, tmp_path):
        _, paths, workdir = pipeline_run
        link = ["link", "--model", str(workdir / "model.json"),
                "--prior", str(workdir / "prior.tsv"), "--categories", paths["categories"]]
        mentions = str(workdir / "eval_mentions.jsonl")
        for argv in (
                [*link, "--mentions", mentions,
                 "--predictions", str(tmp_path / "no" / "such" / "p.jsonl")],
                [*link, "--mentions", str(tmp_path), "--predictions", str(tmp_path / "p.jsonl")],
                pipeline_argv(paths, write_text(tmp_path / "workdir", ""))):
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert err.splitlines()[-1].startswith("error: IO_ERROR: ")

    @pytest.mark.parametrize("command", ["build-vocab", "link", "eval"])
    def test_json_nested_too_deeply_is_refused_with_its_file_and_line(
            self, pipeline_run, capsys, tmp_path, command):
        _, paths, workdir = pipeline_run
        nested = "[" * 200_000 + "\n"
        out = tmp_path / "out"
        out.mkdir()
        mentions, prior = str(workdir / "eval_mentions.jsonl"), str(workdir / "prior.tsv")
        if command == "build-vocab":
            bad = write_text(tmp_path / "m.jsonl",
                             '{"format":"typelink-mentions","version":2}\n' + nested)
            argv, where = ["--mentions", bad, "--prior", prior, "--vocab", str(out / "v.txt"),
                           "--categories", paths["categories"]], f"{bad}:2"
        elif command == "link":
            bad = write_text(tmp_path / "model.json", nested)
            argv, where = ["--mentions", mentions, "--model", bad, "--prior", prior,
                           "--categories", paths["categories"],
                           "--predictions", str(out / "p.jsonl")], f"{bad}:1"
        else:
            bad = write_text(tmp_path / "p.jsonl", nested)
            argv, where = ["--mentions", mentions, "--predictions", bad,
                           "--report", str(out / "r.json")], f"{bad}:1"
        code, _, err = run_cli([command, *argv], capsys)
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {where}: "), err
        assert list(out.iterdir()) == []

    def test_feature_dim_is_at_most_2_to_the_63(self, pipeline_run, capsys, tmp_path,
                                                monkeypatch):
        _, paths, workdir = pipeline_run
        model = tmp_path / "m.json"
        train = ["train", "--mentions", str(workdir / "train_mentions.jsonl"),
                 "--vocab", str(workdir / "vocab.txt"), "--model", str(model), "--quiet"]
        link = ["link", "--mentions", str(workdir / "eval_mentions.jsonl"),
                "--model", str(model), "--prior", str(workdir / "prior.tsv"),
                "--categories", paths["categories"], "--predictions", str(tmp_path / "p.jsonl")]
        assert run_cli([*train, "--feature-dim", str(2 ** 63)], capsys)[0] == 0
        assert run_cli(link, capsys)[0] == 0
        model.unlink()
        monkeypatch.setattr(typelink.cli, "read_examples", None)
        code, _, err = run_cli([*train, "--feature-dim", str(2 ** 63 + 1)], capsys)
        assert code == 2
        assert err.startswith("error: INVALID_INPUT: feature_dim must be in [1, 2**63]"), err
        assert not model.exists()

    def test_model_feature_dim_above_2_to_the_63_is_refused(self, pipeline_run, capsys,
                                                            tmp_path):
        code, _, err = self.link_with_model(pipeline_run, capsys, tmp_path,
                                            lambda h, b: ({**h, "D": 2 ** 64}, b))
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {tmp_path / 'bad_model.json'}:1: "
                              "model header 'D' is not an integer in range"), err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("kind,content,message", [
        ("prior", "aa\tA\t2\naa\tB\t0\n", ":2: count must be a positive integer, got '0'"),
        ("prior", "aa\tA\tx\n", ":1: count must be a positive integer, got 'x'"),
        ("vocab", "x\ny\nx\n", ":3: category 'x' repeats line 1"),
        ("vocab", "x\n\ny\n", ":2: empty category"),
    ], ids=["prior_zero", "prior_not_int", "vocab_repeat", "vocab_blank"])
    def test_prior_and_vocab_errors_name_their_file_and_line(self, capsys, tmp_path, kind,
                                                              content, message):
        bad = write_text(tmp_path / kind, content)
        empty = write_text(tmp_path / "empty", "")
        out = tmp_path / "out"
        out.mkdir()
        if kind == "prior":
            argv = ["build-vocab", "--mentions", empty, "--prior", bad, "--categories", empty,
                    "--vocab", str(out / "v.txt")]
        else:
            argv = ["train", "--mentions", empty, "--vocab", bad, "--model", str(out / "m")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"error: INVALID_INPUT: {bad}{message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("stage, flag", [
        ("build-prior", "--articles"), ("build-vocab", "--mentions"),
        ("build-vocab", "--prior"), ("train", "--vocab"), ("eval", "--predictions"),
    ], ids=["articles", "mentions", "prior", "vocab", "predictions"])
    def test_a_file_that_is_not_utf8_is_refused_with_its_name(self, pipeline_run, capsys,
                                                             tmp_path, stage, flag):
        _, paths, workdir = pipeline_run
        out = tmp_path / "out"
        out.mkdir()
        files = {
            "build-prior": {"--articles": paths["prior_articles"], "--prior": out / "prior.tsv"},
            "build-vocab": {"--mentions": workdir / "eval_mentions_raw.jsonl",
                            "--prior": workdir / "prior.tsv",
                            "--categories": paths["categories"], "--vocab": out / "vocab.txt"},
            "train": {"--mentions": workdir / "train_mentions.jsonl",
                      "--vocab": workdir / "vocab.txt", "--model": out / "model.json"},
            "eval": {"--mentions": workdir / "eval_mentions.jsonl",
                     "--predictions": workdir / "predictions.jsonl",
                     "--report": out / "report.json"},
        }[stage]
        bad = tmp_path / "bad"
        bad.write_bytes(pathlib.Path(files[flag]).read_bytes() + b"\xff\n")
        files[flag] = bad
        code, _, err = run_cli([stage, *(str(arg) for item in files.items() for arg in item)],
                               capsys)
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {bad}: not UTF-8 text ("), err
        assert list(out.iterdir()) == []


# Runs `typelink.cli.main(sys.argv[4:])` in a process that kills itself with
# SIGKILL where sys.argv[1] says: "mid_body" once the handle that
# `atomic_write`, as module sys.argv[2] looks it up, yields has taken
# sys.argv[3] writes; "before_replace" when the finished temporary file
# would be renamed onto the target.
KILLED_WRITER = """
import contextlib, importlib, os, signal, sys
import typelink.atomic
from typelink.cli import main

def die(*_):
    os.kill(os.getpid(), signal.SIGKILL)

kill_at, module, writes = sys.argv[1], importlib.import_module(sys.argv[2]), int(sys.argv[3])
if kill_at == "mid_body":
    atomic_write = module.atomic_write

    class Handle:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.fh.write(data)
            self.writes += 1
            if self.writes == writes:
                self.fh.flush()
                die()

    @contextlib.contextmanager
    def killed_write(path, binary=False):
        with atomic_write(path, binary) as fh:
            yield Handle(fh)

    module.atomic_write = killed_write
else:
    typelink.atomic.os.replace = die
sys.exit(main(sys.argv[4:]))
"""


def killed_stage_argv(stage, paths, w, target):
    """argv of `stage` writing `target` other bytes than the file of that name
    in the pipeline workdir `w`."""
    cats = paths["categories"]
    return [str(a) for a in {
        "build-prior": ["build-prior", "--articles", paths["eval_articles"], "--prior"],
        "ingest": ["ingest", "--articles", paths["train_articles"], "--categories", cats,
                   "--vocab", w / "vocab.txt", "--keep-uncategorized", "--mentions"],
        "build-vocab": ["build-vocab", "--mentions", w / "eval_mentions_raw.jsonl",
                        "--prior", w / "prior.tsv", "--categories", cats,
                        "--vocab-size", "3", "--vocab"],
        "link": ["link", "--mentions", w / "eval_mentions.jsonl", "--model", w / "model.json",
                 "--prior", w / "prior.tsv", "--categories", cats, "--scoring-mode", "logodds",
                 "--predictions"],
        "eval": ["eval", "--mentions", w / "eval_mentions.jsonl",
                 "--predictions", w / "predictions.jsonl", "--model", w / "model.json",
                 "--prior", w / "prior.tsv", "--per-category", "--quiet", "--report"],
    }[stage] + [target]]


def next_stage_argv(stage, paths, w, target, out):
    """argv of the stage that reads what `stage` writes, reading `target` and
    writing into `out` (its last argument) the pipeline's file of that name."""
    cats = paths["categories"]
    return [str(a) for a in {
        "build-prior": ["build-vocab", "--mentions", w / "eval_mentions_raw.jsonl",
                        "--prior", target, "--categories", cats, "--vocab", out / "vocab.txt"],
        "ingest": ["link", "--mentions", target, "--model", w / "model.json",
                   "--prior", w / "prior.tsv", "--categories", cats,
                   "--predictions", out / "predictions.jsonl"],
        "build-vocab": ["ingest", "--articles", paths["eval_articles"], "--categories", cats,
                        "--vocab", target, "--keep-uncategorized",
                        "--mentions", out / "eval_mentions.jsonl"],
        "train": ["link", "--mentions", w / "eval_mentions.jsonl", "--model", target,
                  "--prior", w / "prior.tsv", "--categories", cats,
                  "--predictions", out / "predictions.jsonl"],
        "link": ["eval", "--mentions", w / "eval_mentions.jsonl", "--predictions", target,
                 "--model", w / "model.json", "--prior", w / "prior.tsv", "--quiet",
                 "--report", out / "report.json"],
    }[stage]]


# Each writing stage but train (tested on its own): the module it looks
# `atomic_write` up in and the file it writes.  A kill "mid_body" comes after
# its first write; eval writes its report in one call, so it is killed only
# before the rename.
KILLED_STAGES = {"build-prior": ("typelink.prior", "prior.tsv"),
                 "ingest": ("typelink.ingest", "eval_mentions.jsonl"),
                 "build-vocab": ("typelink.categories", "vocab.txt"),
                 "link": ("typelink.cli", "predictions.jsonl"),
                 "eval": ("typelink.cli", "report.json")}


class TestKilledWriter:
    """A stage killed while it writes leaves the earlier file at the target,
    and the next stage reads that file, never the leftover."""

    def kill(self, kill_at, module, writes, argv):
        """Run `argv` in a child killed where `KILLED_WRITER` says."""
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_WRITER, kill_at, module, str(writes), *argv],
            env=env, capture_output=True, text=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

    def run_next(self, stage, paths, workdir, target, capsys, monkeypatch, tmp_path):
        """Run the stage after `stage` on `target`: it opens the target, no
        temporary file, and writes the pipeline's bytes."""
        out = tmp_path / "next"
        out.mkdir()
        argv = next_stage_argv(stage, paths, workdir, target, out)
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        code, _, err = run_cli(argv, capsys)
        monkeypatch.undo()
        assert code == 0, err
        written = pathlib.Path(argv[-1])
        assert written.read_bytes() == (workdir / written.name).read_bytes()
        assert str(target) in opened
        assert not [name for name in opened if name.endswith(".tmp")]

    @pytest.mark.parametrize("kill_at", ["mid_body", "before_replace"])
    def test_killed_train_leaves_the_earlier_model(self, pipeline_run, capsys, tmp_path,
                                                   monkeypatch, kill_at):
        _, paths, workdir = pipeline_run
        model = tmp_path / "model.json"
        earlier = (workdir / "model.json").read_bytes()
        model.write_bytes(earlier)
        # Two writes: the model's header and the first array of its body.
        self.kill(kill_at, "typelink.model", 2,
                  ["train", "--mentions", str(workdir / "train_mentions.jsonl"),
                   "--vocab", str(workdir / "vocab.txt"), "--model", str(model),
                   "--feature-dim", "4096", "--epochs", "1", "--seed", "7", "--quiet"])
        assert model.read_bytes() == earlier
        [leftover] = tmp_path.glob(".model.json.*.tmp")
        if kill_at == "mid_body":
            with pytest.raises(ValueError, match="model body is"):
                TypingModel.load(str(leftover))
        else:  # the new model, whole but never renamed
            assert leftover.read_bytes() != earlier
            TypingModel.load(str(leftover))
        self.run_next("train", paths, workdir, model, capsys, monkeypatch, tmp_path)

    @pytest.mark.parametrize("stage, kill_at", [
        *((stage, kill_at) for stage in ("build-prior", "ingest", "build-vocab", "link")
          for kill_at in ("mid_body", "before_replace")),
        ("eval", "before_replace")])
    def test_a_killed_stage_leaves_the_earlier_file(self, pipeline_run, capsys, tmp_path,
                                                    monkeypatch, stage, kill_at):
        _, paths, workdir = pipeline_run
        module, name = KILLED_STAGES[stage]
        target = tmp_path / name
        earlier = (workdir / name).read_bytes()
        target.write_bytes(earlier)
        self.kill(kill_at, module, 1, killed_stage_argv(stage, paths, workdir, target))
        assert target.read_bytes() == earlier
        [leftover] = tmp_path.glob(f".{name}.*.tmp")
        assert leftover.read_bytes() != earlier
        if stage != "eval":  # nothing reads the report
            self.run_next(stage, paths, workdir, target, capsys, monkeypatch, tmp_path)


def category_stage_argv(stage, paths, workdir, categories, out):
    """argv of a stage that reads --categories, on the pipeline's files, writing into `out`."""
    argv = {
        "build-vocab": ["--mentions", workdir / "eval_mentions_raw.jsonl",
                        "--prior", workdir / "prior.tsv", "--vocab", out / "vocab.txt"],
        "ingest": ["--articles", paths["eval_articles"], "--vocab", workdir / "vocab.txt",
                   "--keep-uncategorized", "--mentions", out / "eval_mentions.jsonl"],
        "link": ["--mentions", workdir / "eval_mentions.jsonl", "--model", workdir / "model.json",
                 "--prior", workdir / "prior.tsv", "--predictions", out / "predictions.jsonl"],
    }[stage]
    return [stage, "--categories", str(categories), *map(str, argv)]


class TestCategoryReaders:
    """build-vocab, ingest --vocab and link read the categories of the entities they ask about."""

    STAGES = ["build-vocab", "ingest", "link"]
    UNASKED = "Entity No Mention Names"

    @pytest.mark.parametrize("stage", STAGES)
    def test_each_stage_asks_for_the_entities_it_reads(self, pipeline_run, monkeypatch,
                                                       tmp_path, stage):
        _, paths, workdir = pipeline_run
        asked = []

        def recording(path, entities, log=None):
            asked.append(set(entities))
            return load_category_assignments(path, asked[-1], log)

        monkeypatch.setattr(typelink.cli, "load_category_assignments", recording)
        argv = category_stage_argv(stage, paths, workdir, paths["categories"], tmp_path)
        assert main([*argv, "--quiet"]) == 0
        mentions = "eval_mentions.jsonl" if stage == "link" else "eval_mentions_raw.jsonl"
        examples = read_examples(str(workdir / mentions))
        if stage == "ingest":
            expected = {ex.entity for ex in examples}
        else:
            table = PriorTable.load(str(workdir / "prior.tsv"))
            expected = {entity for ex in examples
                        for entity in table.candidates(ex.mention).entities()}
        assert asked == [expected]
        assert self.UNASKED not in expected
        name = pathlib.Path(argv[-1]).name  # each stage's argv ends with its output
        assert (tmp_path / name).read_bytes() == (workdir / name).read_bytes()

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_malformed_line_of_an_entity_not_asked_for_is_refused(
            self, pipeline_run, capsys, tmp_path, stage):
        _, paths, workdir = pipeline_run
        text = pathlib.Path(paths["categories"]).read_text(encoding="utf-8")
        bad = write_text(tmp_path / "categories.tsv", f"{text}{self.UNASKED}\tCats\tDogs\n")
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run_cli(category_stage_argv(stage, paths, workdir, bad, out), capsys)
        assert code == 2
        lineno = text.count("\n") + 1
        assert err == f"error: INVALID_INPUT: {bad}:{lineno}: expected entity<TAB>category\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("stage", STAGES)
    def test_an_empty_category_of_an_entity_not_asked_for_is_counted(
            self, pipeline_run, tmp_path, stage):
        _, paths, workdir = pipeline_run
        text = pathlib.Path(paths["categories"]).read_text(encoding="utf-8")
        extended = write_text(tmp_path / "categories.tsv", f"{text}{self.UNASKED}\t\n")
        counts, outputs = [], []
        for categories, out in ((paths["categories"], tmp_path / "a"),
                                (extended, tmp_path / "b")):
            out.mkdir()
            args = build_parser().parse_args(
                category_stage_argv(stage, paths, workdir, categories, out))
            counts.append(args.run(args).counts)
            [written] = out.iterdir()
            outputs.append(written.read_bytes())
        assert counts[1] == {**counts[0], "empty_category": counts[0]["empty_category"] + 1}
        assert outputs[0] == outputs[1]

    def test_a_file_that_is_not_utf8_is_refused_with_its_name(self, pipeline_run, capsys,
                                                             tmp_path):
        _, paths, workdir = pipeline_run
        bad = tmp_path / "categories.tsv"
        bad.write_bytes(pathlib.Path(paths["categories"]).read_bytes() + b"Caf\xe9\tCats\n")
        code, _, err = run_cli(category_stage_argv("link", paths, workdir, bad, tmp_path),
                               capsys)
        assert code == 2
        assert err.startswith(f"error: INVALID_INPUT: {bad}: not UTF-8 text")


def recording_category_reads(monkeypatch):
    """Wrap `cli.load_category_assignments`; the list returned gets the set of
    entities each call asks about."""
    asked = []

    def recording(path, entities, log=None):
        asked.append(set(entities))
        return load_category_assignments(path, asked[-1], log)

    monkeypatch.setattr(typelink.cli, "load_category_assignments", recording)
    return asked


class TestPipelineCategoryReads:
    """`pipeline` reads categories.tsv once or twice: build-vocab reads it for
    the candidates and the raw eval mentions' entities and hands the types
    on; a later reader asking about an entity outside that read reads the
    file itself."""

    def test_pipeline_reads_the_file_twice(self, small_corpus, monkeypatch, tmp_path):
        paths = small_corpus[1]
        asked = []

        def recording(path, entities, log=None):
            asked.append(set(entities))
            return load_category_assignments(path, asked[-1], log)

        monkeypatch.setattr(typelink.cli, "load_category_assignments", recording)
        work = tmp_path / "work"
        assert main(pipeline_argv(paths, work)) == 0
        raw = read_examples(str(work / "eval_mentions_raw.jsonl"))
        table = PriorTable.load(str(work / "prior.tsv"))
        candidates = {entity for ex in raw for entity in table.candidates(ex.mention).entities()}
        trained = {ex.entity for article in iter_articles(paths["train_articles"])
                   for ex in extract_examples(article)}
        assert asked == [candidates | {ex.entity for ex in raw}, trained]

    def test_pipeline_reads_the_file_once_when_every_train_entity_is_a_candidate(
            self, monkeypatch, capsys, tmp_path):
        # C is a candidate of "aa" but no eval mention's gold entity.
        corpus = {"train_articles": "T1\nx [[A|aa]] y [[C|aa]] .\nmore [[B|bb]] text .\n%%%%\n",
                  "eval_articles": "E1\nq [[A|aa]] r . s [[B|bb]] t .\n%%%%\n",
                  "categories": "A\tSimple\nB\tOther\nC\tSimple things\nA\t\nD\tUnused\n"}
        paths = {"prior_articles": None, **{name: write_text(tmp_path / name, text)
                                            for name, text in corpus.items()}}
        asked = recording_category_reads(monkeypatch)
        assert main(pipeline_argv(paths, tmp_path / "piped")) == 0
        assert asked == [{"A", "B", "C"}]
        (tmp_path / "staged").mkdir()
        run_stages(paths, tmp_path / "staged", capsys,
                   {"--feature-dim": "4096", "--epochs": "3", "--seed": "13"})
        for name in PIPELINE_FILES:
            assert (tmp_path / "piped" / name).read_bytes() == \
                (tmp_path / "staged" / name).read_bytes(), name

    @pytest.mark.parametrize("stage", ["ingest", "link"])
    def test_a_stage_reads_the_file_for_entities_not_handed(self, pipeline_run, monkeypatch,
                                                            capsys, tmp_path, stage):
        _, paths, workdir = pipeline_run
        text = pathlib.Path(paths["categories"]).read_text(encoding="utf-8")
        categories = write_text(tmp_path / "categories.tsv", f"{text}Entity\t\n")
        asked = recording_category_reads(monkeypatch)
        outputs, printed = [], []
        for name in ("standalone", "handed"):
            out = tmp_path / name
            out.mkdir()
            args = build_parser().parse_args(
                category_stage_argv(stage, paths, workdir, categories, out))
            if name == "handed":
                # Types read for all but one entity the stage asks about, and
                # wrong for every one of them.
                missing = sorted(asked[0])[0]
                args.handoff = {categories: HandedTypes({}, asked[0] - {missing}, 0)}
            typelink.cli._print_diagnostics(args, args.run(args))
            [written] = out.iterdir()
            outputs.append(written.read_bytes())
            printed.append(capsys.readouterr().err)
        assert len(asked) == 2 and asked[1] == asked[0]
        assert outputs[1] == outputs[0]
        assert printed[1] == printed[0]
        assert "empty_category=1" in printed[0]


# Lines a reader must refuse with ValueError, if it does not take them:
# any text, brackets nested past any parser's depth, and JSON values shaped
# like the records and prediction rows the readers convert.
_json_leaf_st = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
                 | st.sampled_from(["", "aa", "A"]))
_json_value_st = st.recursive(_json_leaf_st, lambda inner: st.lists(inner, max_size=9) | (
    st.dictionaries(st.sampled_from(["run", "first", "examples", "mention", "chosen",
                                     "used_backoff", "scores"]), inner, max_size=7)),
    max_leaves=24)
_any_line_st = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.builds(lambda opener, depth, rest: opener * depth + rest,
              st.sampled_from(["[", '{"a":', '{"run":[', '{"scores":[[']),
              st.integers(1, 200_000), st.text(max_size=3)),
    _json_value_st.map(json.dumps))


@settings(max_examples=200, deadline=None)
@given(line=_any_line_st)
def test_the_readers_return_or_refuse_any_line(line, tmp_path_factory):
    root = tmp_path_factory.mktemp("line")
    header = '{"format":"typelink-mentions","version":2}'
    for read, content in ((read_examples, f"{header}\n{line}\n"), (read_predictions, line)):
        path = write_text(root / "lines.jsonl", content)
        try:
            read(path)
        except ValueError:
            pass


class TestHandCorpus:
    def build(self, tmp_path, capsys):
        articles = write_text(tmp_path / "train.txt",
                              "T1\nx [[A|aa]] y .\nmore [[A|aa]] text .\n%%%%\n")
        eval_articles = write_text(tmp_path / "eval.txt",
                                   "E1\nq [[A|zzz]] r .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tSimple\n")
        vocab = write_text(tmp_path / "v.txt", "Simple\n")
        for argv in (
            ["build-prior", "--articles", articles,
             "--prior", str(tmp_path / "prior.tsv")],
            ["ingest", "--articles", articles, "--categories", cats,
             "--mentions", str(tmp_path / "train_m.jsonl"), "--vocab", vocab],
            ["ingest", "--articles", eval_articles, "--categories", cats,
             "--mentions", str(tmp_path / "eval_m.jsonl"), "--vocab", vocab,
             "--keep-uncategorized"],
            ["train", "--mentions", str(tmp_path / "train_m.jsonl"),
             "--vocab", vocab, "--model", str(tmp_path / "model.json"),
             "--feature-dim", "512", "--epochs", "1", "--quiet"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv[0], err)
        return tmp_path, cats

    def test_unseen_mention_gets_null_prediction(self, tmp_path, capsys):
        root, cats = self.build(tmp_path, capsys)
        code, _, err = run_cli(
            ["link", "--mentions", str(root / "eval_m.jsonl"),
             "--model", str(root / "model.json"),
             "--prior", str(root / "prior.tsv"), "--categories", cats,
             "--predictions", str(root / "p.jsonl"), "--quiet"], capsys)
        assert code == 0
        rows = read_predictions(str(root / "p.jsonl"))
        assert rows == [{"mention": "zzz", "chosen": None,
                         "used_backoff": False, "scores": []}]
        code, _, _ = run_cli(
            ["eval", "--mentions", str(root / "eval_m.jsonl"),
             "--predictions", str(root / "p.jsonl"),
             "--report", str(root / "r.json"),
             "--prior", str(root / "prior.tsv"), "--quiet"], capsys)
        assert code == 0
        report = json.loads((root / "r.json").read_text(encoding="utf-8"))
        assert report["linking_accuracy"] == 0.0
        assert report["gold_recall"] == 0.0

    def test_split_flag_changes_sentence_boundaries(self, tmp_path, capsys):
        articles = write_text(tmp_path / "a.txt",
                              "T\nA [[B|b]] c . Next sentence here .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "B\tThing\n")
        out_joined = tmp_path / "joined.jsonl"
        out_split = tmp_path / "split.jsonl"
        for argv in (
            ["ingest", "--articles", articles, "--categories", cats,
             "--mentions", str(out_joined)],
            ["ingest", "--articles", articles, "--categories", cats,
             "--mentions", str(out_split), "--split"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 0, err
        [joined] = read_examples(str(out_joined))
        [split] = read_examples(str(out_split))
        assert joined.tokens == ["A", "b", "c", ".", "Next", "sentence",
                                 "here", "."]
        assert split.tokens == ["A", "b", "c", "."]
        assert split.right_extra == ["Next", "sentence", "here", "."]


    def test_tab_target_and_empty_category_are_counted_not_fatal(self, tmp_path, capsys):
        articles = write_text(tmp_path / "a.txt",
                              "T\nx [[A|aa]] y [[Foo\tBar|foo]] z .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tThings in Ohio\nA\t\n")
        vocab = write_text(tmp_path / "v.txt", "Things\n")
        model = tmp_path / "model.json"
        steps = [
            (["build-prior", "--articles", articles, "--prior", str(tmp_path / "prior.tsv")],
             "malformed_link=1"),
            (["ingest", "--articles", articles, "--categories", cats, "--vocab", vocab,
              "--mentions", str(tmp_path / "m.jsonl")], "empty_category=1"),
            (["train", "--mentions", str(tmp_path / "m.jsonl"), "--vocab", vocab,
              "--model", str(model), "--feature-dim", "64", "--epochs", "1", "--quiet"],
             ""),
            (["link", "--mentions", str(tmp_path / "m.jsonl"), "--model", str(model),
              "--prior", str(tmp_path / "prior.tsv"), "--categories", cats,
              "--predictions", str(tmp_path / "p.jsonl")], "empty_category=1"),
        ]
        for argv, counted in steps:
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv[0], err)
            assert counted in err, (argv[0], err)
        assert PriorTable.load(str(tmp_path / "prior.tsv")).candidates("aa").entities() == ["A"]
        assert read_predictions(str(tmp_path / "p.jsonl"))[0]["chosen"] == "A"

    def test_build_vocab_counts_an_empty_category(self, tmp_path, capsys):
        articles = write_text(tmp_path / "a.txt", "T\nx [[A|aa]] y .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tThings in Ohio\nA\t\n")
        prior, raw = str(tmp_path / "prior.tsv"), str(tmp_path / "raw.jsonl")
        for argv in (["build-prior", "--articles", articles, "--prior", prior],
                     ["ingest", "--articles", articles, "--categories", cats,
                      "--mentions", raw]):
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv[0], err)
        argv = ["build-vocab", "--mentions", raw, "--prior", prior, "--categories", cats,
                "--vocab", str(tmp_path / "v.txt")]
        args = build_parser().parse_args(argv)
        assert dict(args.run(args).counts) == {"empty_category": 1}
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        assert err == "diagnostics: empty_category=1\n"
        assert (tmp_path / "v.txt").read_text(encoding="utf-8").splitlines() == [
            "Things", "Things in Ohio", "in Ohio"]


class TestPipelineHandCorpus:
    """`pipeline` on one hand-written article used as train, eval and prior text."""

    def run(self, tmp_path, capsys, article, categories, *flags):
        articles = write_text(tmp_path / "a.txt", article)
        cats = write_text(tmp_path / "c.tsv", categories)
        workdir = tmp_path / "run"
        code, _, err = run_cli(
            ["pipeline", "--articles", articles, "--eval-articles", articles,
             "--categories", cats, "--workdir", str(workdir),
             "--feature-dim", "64", "--epochs", "1", *flags], capsys)
        assert code == 0, err
        return workdir, [line for line in err.splitlines() if "diagnostics:" in line]

    def test_each_stage_prints_its_diagnostics(self, tmp_path, capsys):
        _, lines = self.run(tmp_path, capsys, "T\nx [[A|aa]] y [[Foo\tBar|foo]] z .\n%%%%\n",
                            "A\tThings in Ohio\nA\t\n")
        by_stage = {line.split(" diagnostics: ")[0]: line for line in lines}
        assert "malformed_link=1" in by_stage["build-prior"]
        assert "empty_category=1" in by_stage["link"]
        assert all(line.split(" diagnostics: ")[1] for line in lines)

    def test_quiet_prints_no_diagnostics(self, tmp_path, capsys):
        _, lines = self.run(tmp_path, capsys, "T\nx [[A|aa]] y [[Foo\tBar|foo]] z .\n%%%%\n",
                            "A\tThings in Ohio\nA\t\n", "--quiet")
        assert lines == []

    def test_case_fold_finds_capitalized_anchors(self, tmp_path, capsys):
        workdir, _ = self.run(tmp_path, capsys, "T\nx [[A|Aa]] y [[A|AA]] z .\n%%%%\n",
                              "A\tThings in Ohio\n", "--case-fold", "--quiet")
        assert (workdir / "prior.tsv").read_text(encoding="utf-8") == "#case_fold\naa\tA\t2\n"
        assert [row["chosen"] for row in read_predictions(str(workdir / "predictions.jsonl"))] \
            == ["A", "A"]

    def test_a_byte_order_mark_leaves_the_first_entity_its_types(self, tmp_path, capsys):
        article = "T\nx [[A|aa]] y .\n%%%%\n"
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        plain, _ = self.run(tmp_path / "plain", capsys, article, "A\tThings in Ohio\n")
        marked, _ = self.run(tmp_path / "bom", capsys, article, "\ufeffA\tThings in Ohio\n")
        for name in PIPELINE_FILES:
            assert (marked / name).read_bytes() == (plain / name).read_bytes(), name


class TestPriorAccuracy:
    """`prior_accuracy`: the most-frequent-entity baseline over the candidate
    sets that gold recall reads."""

    def evaluate(self, tmp_path, capsys, prior, golds, *flags):
        """eval --prior on `prior` (TSV text) for one-token mentions with
        their gold entities `golds`, none of them chosen; returns the report."""
        mentions = str(tmp_path / "m.jsonl")
        write_examples(mentions, [MentionExample(tokens=[m], span=(0, 1), entity=e)
                                  for m, e in golds])
        predictions = write_text(tmp_path / "p.jsonl", "".join(
            json.dumps({"mention": m, "chosen": None, "used_backoff": False, "scores": []})
            + "\n" for m, _ in golds))
        code, _, err = run_cli(
            ["eval", "--mentions", mentions, "--predictions", predictions,
             "--prior", write_text(tmp_path / "prior.tsv", prior),
             "--report", str(tmp_path / "r.json"), "--quiet", *flags], capsys)
        assert code == 0, err
        return json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))

    def test_a_mention_without_candidates_counts_as_wrong(self, tmp_path, capsys):
        report = self.evaluate(tmp_path, capsys, "aa\tA\t1\n", [("aa", "A"), ("zzz", "Z")])
        assert (report["prior_accuracy"], report["gold_recall"]) == (0.5, 0.5)

    @pytest.mark.parametrize("gold, accuracy", [("A", 1.0), ("B", 0.0)])
    def test_equal_counts_go_to_the_smaller_entity_string(self, tmp_path, capsys, gold,
                                                          accuracy):
        report = self.evaluate(tmp_path, capsys, "m\tB\t2\nm\tA\t2\n", [("m", gold)])
        assert (report["prior_accuracy"], report["gold_recall"]) == (accuracy, 1.0)

    @pytest.mark.parametrize("threshold, accuracy", [("0.75", 1.0), ("0.8", 0.0)])
    def test_a_candidate_below_the_threshold_is_never_the_baseline(self, tmp_path, capsys,
                                                                   threshold, accuracy):
        # B has prior 0.75, so --threshold 0.8 leaves "m" without candidates.
        report = self.evaluate(tmp_path, capsys, "m\tB\t3\nm\tA\t1\n", [("m", "B")],
                               "--threshold", threshold)
        assert (report["prior_accuracy"], report["gold_recall"]) == (accuracy, accuracy)

    def test_standalone_eval_writes_the_report_of_pipeline(self, tmp_path, capsys):
        # "aa" links to A twice and to B once; the eval article's second
        # "aa" is B's, and "zzz" has no candidate.
        articles = write_text(tmp_path / "train.txt", "T1\nx [[A|aa]] y .\nmore [[A|aa]] text ."
                              "\nthe [[B|aa]] z .\n%%%%\n")
        eval_articles = write_text(tmp_path / "eval.txt", "E1\nq [[A|aa]] r .\n"
                                   "s [[B|aa]] t .\nu [[A|zzz]] v .\n%%%%\n")
        cats = write_text(tmp_path / "c.tsv", "A\tSimple\nB\tOther\n")
        w = tmp_path / "run"
        code, _, err = run_cli(["pipeline", "--articles", articles, "--eval-articles",
                                eval_articles, "--categories", cats, "--workdir", str(w),
                                "--feature-dim", "64", "--epochs", "1", "--quiet"], capsys)
        assert code == 0, err
        code, _, err = run_cli(["eval", "--mentions", str(w / "eval_mentions.jsonl"),
                                "--predictions", str(w / "predictions.jsonl"),
                                "--model", str(w / "model.json"), "--prior", str(w / "prior.tsv"),
                                "--report", str(tmp_path / "r.json"), "--quiet"], capsys)
        assert code == 0, err
        piped = (w / "report.json").read_bytes()
        assert (tmp_path / "r.json").read_bytes() == piped
        report = json.loads(piped)
        assert (report["prior_accuracy"], report["gold_recall"]) == (1 / 3, 2 / 3)


# Each piece of broken markup `_parse_sentence` counts, by the diagnostic it
# is counted under, in a sentence beside well-formed links.
GLITCHES = [
    ("unclosed_link", "x [[A|aa]] y . z [[B|bb w ."),
    ("malformed_link", "x [[A|[[B|bb]] y . q [[A|Aa]] z ."),
    ("empty_target", "x [[|aa]] y . q [[A|AA]] z ."),
    ("empty_anchor", "x [[A|]] y . q [[A|aa]] z ."),
    ("malformed_link", "x [[Foo\tBar|foo]] y . q [[A|aa]] z ."),
    ("misaligned_anchor", "x[[A|aa]] y . q [[A|Aa]]z [[B|aa]] ."),
]


class TestBuildPrior:
    @pytest.mark.parametrize("flags", [[], ["--split"], ["--case-fold"],
                                       ["--split", "--case-fold"]])
    @pytest.mark.parametrize("reason, sentence", GLITCHES)
    def test_the_prior_counts_the_pairs_of_the_mention_examples(self, tmp_path, reason,
                                                                sentence, flags):
        articles = write_text(tmp_path / "a.txt", f"T\n{sentence}\nq [[A|aa]] [[B|Bb]] .\n"
                                                  "%%%%\nU\n[[B|bb]] r . [[A|AA]]\n%%%%\n")
        args = build_parser().parse_args(
            ["build-prior", "--articles", articles, "--prior", str(tmp_path / "p.tsv"), *flags])
        counts = args.run(args).counts
        log = DiagnosticLog()
        pairs = ((ex.mention, ex.entity)
                 for article in iter_articles(articles, split="--split" in flags, log=log)
                 for ex in extract_examples(article, log))
        accumulate(pairs, case_fold="--case-fold" in flags).save(str(tmp_path / "expected.tsv"))
        assert (tmp_path / "p.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()
        assert counts == log.counts
        assert counts[reason] >= 1

    def test_build_prior_builds_no_mention_example(self, small_corpus, monkeypatch, tmp_path):
        built = []
        post_init = MentionExample.__post_init__
        monkeypatch.setattr(MentionExample, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        articles = small_corpus[1]["prior_articles"]
        assert main(["build-prior", "--articles", articles,
                     "--prior", str(tmp_path / "prior.tsv"), "--quiet"]) == 0
        assert built == []
        assert PriorTable.load(str(tmp_path / "prior.tsv")).counts
        # The probe sees the examples that ingest builds.
        extract_examples(next(iter_articles(articles)))
        assert built


def test_standalone_stages_print_diagnostics(tmp_path, capsys):
    articles = write_text(tmp_path / "a.txt", "T\nx [[A|aa]] y [[B|bb]] z .\n%%%%\n")
    cats = write_text(tmp_path / "c.tsv", "A\tThings\nB\tOther\n")
    vocab = write_text(tmp_path / "v.txt", "Things\n")
    mentions = str(tmp_path / "m.jsonl")
    code, _, err = run_cli(["ingest", "--articles", articles, "--categories", cats,
                            "--vocab", vocab, "--keep-uncategorized", "--mentions", mentions],
                           capsys)
    assert code == 0, err
    assert err == "diagnostics: no_vocab_categories=1\n"
    code, _, err = run_cli(["train", "--mentions", mentions, "--vocab", vocab,
                            "--model", str(tmp_path / "model.json"),
                            "--feature-dim", "64", "--epochs", "1"], capsys)
    assert code == 0, err
    assert err.splitlines()[-1] == "diagnostics: unlabeled_example=1"


def test_seed_accepted_only_where_read():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for a in p._actions for opt in a.option_strings}
             for name, p in sub.choices.items()}
    assert {name for name, opts in flags.items() if "--seed" in opts} == {
        "ingest", "train", "pipeline"}
    assert all({"--workers", "--quiet"} <= opts for opts in flags.values())


def test_readme_names_every_long_option():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    missing = sorted(opt for opt in options
                     if not re.search(re.escape(opt) + r"(?![\w-])", readme))
    assert not missing, f"README.md never names {', '.join(missing)}"


def test_readme_stage_commands_follow_the_pipeline_order(monkeypatch, tmp_path):
    calls = record_stages(monkeypatch)
    paths = corpus_paths("hand", None, tmp_path)
    assert main(pipeline_argv(paths, tmp_path / "work")) == 0
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("or stage by stage", 1)[1].split("```", 2)[1]
    assert re.findall(r"^typelink +(\S+)", block, re.MULTILINE) == \
        [name.removeprefix("stage_").replace("_", "-") for name, _, _ in calls]


class StageReached(Exception):
    """Raised by a stand-in stage: the checks let the run through."""


# The path flags each subcommand reads; its other path flags are outputs.
INPUTS = {
    "ingest": {"--articles", "--categories", "--vocab"},
    "build-prior": {"--articles"},
    "build-vocab": {"--mentions", "--prior", "--categories"},
    "train": {"--mentions", "--vocab", "--dev-mentions"},
    "link": {"--mentions", "--model", "--prior", "--categories"},
    "eval": {"--mentions", "--predictions", "--model", "--prior"},
    "pipeline": {"--articles", "--eval-articles", "--categories", "--prior-articles"},
}


def test_every_setting_and_input_is_checked_before_any_stage(tmp_path, monkeypatch, capsys):
    """Each subcommand, given every path flag and setting, refuses a missing
    input with its code and an out-of-range numeric setting as INVALID_INPUT
    before its stage runs, and writes nothing."""
    def stage(args):
        raise StageReached(args.command)

    for name in ("build_prior", "ingest", "build_vocab", "train", "link", "eval", "pipeline"):
        monkeypatch.setattr(typelink.cli, f"stage_{name}", stage)
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(INPUTS)
    existing = write_text(tmp_path / "exists", "")
    missing = str(tmp_path / "missing")
    outputs = tmp_path / "out"
    outputs.mkdir()
    for command, p in sub.choices.items():
        # Flags that take a value: paths (no type, no choices) and settings.
        actions = {a.option_strings[0]: a for a in p._actions
                   if a.option_strings and a.nargs != 0}
        codes = {flag: p.get_default("inputs")[a.dest] for flag, a in actions.items()
                 if a.dest in p.get_default("inputs")}
        assert set(codes) == INPUTS[command]
        numeric = [flag for flag, a in actions.items() if a.type in (int, float)]
        given = {flag: existing if flag in codes else str(outputs / flag[2:])
                 for flag, a in actions.items() if a.type is None and not a.choices}
        given.update({flag: str(actions[flag].default or 0) for flag in numeric})

        def run(**changed):
            argv = [command]
            for flag, value in {**given, **changed}.items():
                argv += [flag, value]
            return run_cli(argv, capsys)

        with pytest.raises(StageReached):
            run()
        for flag, code in codes.items():
            # A code names the kind of file: --eval-articles gives ARTICLES_NOT_FOUND.
            assert code == flag.rsplit("-", 1)[1].upper() + "_NOT_FOUND"
            assert run(**{flag: missing}) == (2, "", f"error: {code}: {missing}\n"), flag
        for flag, a in actions.items():
            if a.dest in p.get_default("outputs"):
                out = str(tmp_path / "missing" / "out")
                assert run(**{flag: out}) == (
                    2, "", f"error: IO_ERROR: no directory for output {out}\n"), flag
        for flag in numeric:
            for value in ["-1", "nan"] if actions[flag].type is float else ["-1"]:
                code, _, err = run(**{flag: value})
                assert (code, err.startswith("error: INVALID_INPUT: ")) == (2, True), \
                    (command, flag, value, err)
    assert list(outputs.iterdir()) == []


def test_bare_train_parse_gives_the_default_config():
    args = build_parser().parse_args(["train", "--mentions", "m", "--vocab", "v",
                                      "--model", "x"])
    config = TrainConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(TrainConfig)})
    assert config == TrainConfig()


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "typelink", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("ingest", "build-vocab", "build-prior", "train", "link",
                 "eval", "pipeline"):
        assert name in proc.stdout


def test_no_scipy_import():
    code = "import sys, typelink.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    # -X importtime logs every module the process imports, one per line.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "typelink", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "typelink.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_cli_import_starts_no_process_pool_machinery():
    code = ("import sys, typelink.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_unknown_subcommand_exits_nonzero():
    proc = subprocess.run([sys.executable, "-m", "typelink", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode != 0


def test_readme_lists_every_error_code_the_cli_prints():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Errors and diagnostics", 1)[1].split("Recoverable", 1)[0]
    source = pathlib.Path(typelink.cli.__file__).read_text(encoding="utf-8")
    printed = set(re.findall(r'"([A-Z]+(?:_[A-Z]+)+)"', source))
    assert "IO_ERROR" in printed
    assert set(re.findall(r"`([A-Z_]+)`", section)) == printed


ENTITIES = ("Ann", "Bo b", "Cy")
SENTENCE_PIECES = st.one_of(
    st.sampled_from(["[[Ann|ann]]", "[[Bo b]]", "[[Cy|the cy]]", "[[Cy]]",
                     "[[Ann|a\u00a0nn]]"]),
    st.sampled_from(["word", "x.", "y!", "[[Ann", "[[Ann [[Cy]] z]]", "[[|ann]]",
                     "[[Ann|]]", "[[Ann\tX|ann]]", "glued[[Cy|cy]]", "\u00a0", "\x1c"]))
TITLES = st.sampled_from(["Title", "Doc", "  Padded  ", "", "   "])


@st.composite
def category_files(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(ENTITIES), st.sampled_from(
        ["People", "Cities in Ohio", "Rivers of Spain", "Software"])).map("\t".join),
        min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(["", " ", "Ann\t", "Cy\tLine\u2028break"]),
                          max_size=2))
    return "\n".join(draw(st.permutations(rows))) + "\n"


@st.composite
def article_files(draw):
    articles = draw(st.lists(st.tuples(TITLES, st.lists(
        st.lists(SENTENCE_PIECES, min_size=1, max_size=6).map(" ".join), max_size=3)),
        min_size=1, max_size=4))
    return "".join("\n".join([title, *body]) + "\n%%%%\n" for title, body in articles)


@settings(max_examples=50, deadline=None)
@given(train=article_files(), eval_=st.none() | article_files(),
       categories=category_files(),
       scoring_mode=st.sampled_from(SCORING_MODES), case_fold=st.booleans())
def test_pipeline_finishes_or_reports_a_documented_error(
        train, eval_, categories, scoring_mode, case_fold, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"train_articles": write_text(root / "train.txt", train),
             "eval_articles": write_text(root / "eval.txt", eval_ or train),
             "prior_articles": None,
             "categories": write_text(root / "cats.tsv", categories)}
    argv = pipeline_argv(paths, root / "work", **{
        "--feature-dim": "64", "--epochs": "1", "--scoring-mode": scoring_mode})
    if case_fold:
        argv.append("--case-fold")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code != 0:
        assert code == 2
        assert re.match(r"error: [A-Z_]+: ", stderr.getvalue().splitlines()[-1])
        return
    work = root / "work"
    PriorTable.load(str(work / "prior.tsv"))
    for name in ("eval_mentions_raw.jsonl", "train_mentions.jsonl", "eval_mentions.jsonl"):
        read_examples(str(work / name))
    CategoryVocab.load(str(work / "vocab.txt"))
    TypingModel.load(str(work / "model.json"))
    read_predictions(str(work / "predictions.jsonl"))
    json.loads((work / "report.json").read_text(encoding="utf-8"))


def test_predict_example_gives_the_posterior_link_scores(tmp_path, monkeypatch, capsys):
    """The public API applies the model's context mode as `link` does.

    perfbench's smoke corpus has links past the first sentence of an
    article, where the default mode's prefix changes the features; each
    eval mention's posterior from `predict_example` on the mention as read
    must be the one `link` scored, bit for bit.
    """
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from corpus import CorpusSpec, write_corpus
        from workloads import SMOKE_CORPUS, WORKLOADS
    finally:
        sys.path.pop(0)
    corpus = write_corpus(str(tmp_path / "corpus"), CorpusSpec(seed=1, **SMOKE_CORPUS))
    scored = []
    link = typelink.cli.link
    monkeypatch.setattr(typelink.cli, "link",
                        lambda posterior, *rest, **kw: scored.append(posterior)
                        or link(posterior, *rest, **kw))
    workdir = tmp_path / "run"
    code, _, err = run_cli(["pipeline", "--articles", corpus["train_articles"],
                            "--eval-articles", corpus["eval_articles"],
                            "--prior-articles", corpus["prior_articles"],
                            "--categories", corpus["categories"], "--workdir", str(workdir),
                            *WORKLOADS["text_heavy"].model_flags, "--quiet"], capsys)
    assert code == 0, err
    model = TypingModel.load(str(workdir / "model.json"))
    assert model.context_mode == "sentence_plus_first_doc_sentence"
    rows = read_predictions(str(workdir / "predictions.jsonl"))
    linked = [ex for ex, row in zip(read_examples(str(workdir / "eval_mentions.jsonl")), rows)
              if row["chosen"] is not None]
    assert len(linked) == len(scored) > 0
    for ex, posterior in zip(linked, scored):
        assert predict_example(model, ex).logits.tobytes() == posterior.logits.tobytes()
