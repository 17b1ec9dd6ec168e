import argparse
import contextlib
import dataclasses
import io
import json
import math
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typelink.cli
import typelink.ingest
from typelink.categories import CategoryVocab, expand_category
from typelink.cli import build_parser, main, read_predictions
from typelink.diagnostics import DiagnosticLog
from typelink.ingest import (MentionExample, RawArticle, load_category_assignments,
                             read_examples, write_examples)
from typelink.linker import SCORING_MODES
from typelink.model import TrainConfig, TypingModel
from typelink.prior import PriorTable

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
        assert list(report) == ["linking_accuracy", "gold_recall",
                                "typing_buckets", "per_category"]
        assert report["linking_accuracy"] >= spec.expected_mfe_accuracy
        assert report["gold_recall"] == 1.0
        labels = [row[0] for row in report["typing_buckets"]]
        assert labels == ["1-100", "101-500", "501-10000", "10001+", "total"]

    def test_prediction_rows_align_with_mentions(self, pipeline_run):
        _, _, workdir = pipeline_run
        predictions = read_predictions(str(workdir / "predictions.jsonl"))
        mentions = (workdir / "eval_mentions.jsonl").read_text(encoding="utf-8")
        assert len(predictions) == len(mentions.splitlines())

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
            ["ingest", "--articles", paths["eval_articles"], "--categories", cats,
             "--mentions", f"{b}/eval_mentions.jsonl", "--vocab", f"{b}/vocab.txt",
             "--keep-uncategorized"],
            ["train", "--mentions", f"{b}/train_mentions.jsonl",
             "--vocab", f"{b}/vocab.txt", "--model", f"{b}/model.json",
             "--feature-dim", "4096", "--epochs", "3", "--seed", "13", "--quiet"],
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

    def test_two_workers_give_the_same_bytes(self, pipeline_run, tmp_path):
        _, paths, workdir_a = pipeline_run
        code = main(pipeline_argv(paths, tmp_path, **{"--workers": "2"}))
        assert code == 0
        for name in PIPELINE_FILES:
            assert (tmp_path / name).read_bytes() == (workdir_a / name).read_bytes(), name

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
        build_context = typelink.cli.build_context
        monkeypatch.setattr(typelink.cli, "build_context",
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
        rows = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        assert rows and all(row["categories"] is None for row in rows)

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
        assignments = load_category_assignments(paths["categories"])
        candidates = {entity for ex in read_examples(str(workdir / "eval_mentions.jsonl"))
                      for entity in table.candidates(ex.mention).entities()}
        assert len(candidates & set(assignments)) < len(assignments)
        assert sorted(calls) == sorted(raw for entity in candidates if entity in assignments
                                       for raw in assignments[entity].raw_categories)

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

    def test_eval_prints_report_unless_quiet(self, pipeline_run, capsys, tmp_path):
        _, _, workdir = pipeline_run
        argv = ["eval", "--mentions", str(workdir / "eval_mentions.jsonl"),
                "--predictions", str(workdir / "predictions.jsonl"),
                "--report", str(tmp_path / "r.json")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "linking_accuracy" in out
        code, out, _ = run_cli(argv + ["--quiet"], capsys)
        assert code == 0
        assert out == ""


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

    def test_mention_count_mismatch(self, capsys, tmp_path):
        ex = MentionExample(mention="aa", tokens=["aa"], span=(0, 1), entity="A")
        mentions = tmp_path / "m.jsonl"
        write_examples(str(mentions), [ex, ex.copy()])
        predictions = write_text(
            tmp_path / "p.jsonl",
            '{"mention":"aa","chosen":"A","used_backoff":false,"scores":[]}\n')
        code, _, err = run_cli(
            ["eval", "--mentions", str(mentions), "--predictions", predictions,
             "--report", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert "error: INVALID_INPUT:" in err

    def test_mention_name_mismatch(self, capsys, tmp_path):
        ex = MentionExample(mention="aa", tokens=["aa"], span=(0, 1), entity="A")
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

    def test_version_2_model_must_be_retrained(self, pipeline_run, capsys, tmp_path):
        def as_v2(header, body):
            header = {k: v for k, v in header.items() if k != "context_mode"}
            return {**header, "format_version": 2}, body

        code, _, err = self.link_with_model(pipeline_run, capsys, tmp_path, as_v2)
        assert code == 2
        assert err == "error: INVALID_INPUT: unsupported model format version: 2\n"

    @pytest.mark.parametrize("corrupt", [
        lambda h, b: (h, b[:-8] + struct.pack("<d", math.nan)),
        lambda h, b: (h, b[:-1]),
        lambda h, b: (h, b + b"\0"),
        lambda h, b: ({k: v for k, v in h.items() if k != "vocab"}, b),
        lambda h, b: ({**h, "columns": -1}, b),
        lambda h, b: ({**h, "D": 1}, b),
        lambda h, b: ({k: v for k, v in h.items() if k != "context_mode"}, b),
        lambda h, b: ({**h, "context_mode": "whole_document"}, b),
    ], ids=["nan_weight", "truncated", "trailing_byte", "missing_key",
            "negative_columns", "column_id_beyond_D", "missing_context_mode",
            "unknown_context_mode"])
    def test_corrupt_model_file(self, pipeline_run, capsys, tmp_path, corrupt):
        code, _, err = self.link_with_model(pipeline_run, capsys, tmp_path, corrupt)
        assert code == 2
        assert "error: INVALID_INPUT:" in err
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.parametrize("flag,value", [("--learning-rate", "nan"),
                                            ("--learning-rate", "inf"),
                                            ("--l2-penalty", "nan")])
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
        assert not (tmp_path / "m.json").exists()

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
        joined = json.loads(out_joined.read_text(encoding="utf-8").splitlines()[0])
        split = json.loads(out_split.read_text(encoding="utf-8").splitlines()[0])
        assert joined["tokens"] == ["A", "b", "c", ".", "Next", "sentence",
                                    "here", "."]
        assert split["tokens"] == ["A", "b", "c", "."]
        assert split["right_extra"] == ["Next", "sentence", "here", "."]


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


def test_workers_capped_at_the_chunk_count(monkeypatch):
    started = []

    class RecordingExecutor:
        """Runs the map in this process and records the pool size asked for."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(typelink.cli, "ProcessPoolExecutor", RecordingExecutor)
    articles = [RawArticle("A", ["see [[A|a]] here ."]), RawArticle("B", ["[[B]] too ."])]
    examples = typelink.cli._extract_all(articles, 64, DiagnosticLog())
    assert started == [2]
    assert examples == typelink.cli._extract_all(articles, 1, DiagnosticLog())


def test_seed_accepted_only_where_read():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for a in p._actions for opt in a.option_strings}
             for name, p in sub.choices.items()}
    assert {name for name, opts in flags.items() if "--seed" in opts} == {
        "ingest", "train", "pipeline"}
    assert all({"--workers", "--quiet"} <= opts for opts in flags.values())


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
