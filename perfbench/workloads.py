"""The three benchmark workloads: how each makes its inputs and which CLI commands it times.

Every workload runs at ``--workers 1``, the byte-deterministic mode, so the
outputs of every run of one seed must be identical.  Each timed command is
one ``python -m typelink ...`` process; a workload's set-up commands run
once per set-up and are not timed as part of ``wall_s``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from corpus import CorpusSpec, write_corpus


@dataclass
class Command:
    """One timed CLI invocation and the files it writes."""

    label: str
    argv: list[str]
    outputs: list[str]


@dataclass
class Plan:
    """The commands of one run of a workload and where their artifacts land.

    `artifacts` maps a kind (prior, vocab, model, or a mentions file) to
    the path the program wrote it to; the checks reload each through the
    package's own loader.
    """

    timed: list[Command]
    artifacts: dict[str, str]
    predictions: str
    report: str


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    corpus: dict                 # preset -> generator sizes
    model_flags: tuple           # CLI flags that size the typing model
    synthetic: bool = False      # inputs from typelink.synthetic instead of corpus.py
    setup_trains: bool = False   # set-up trains the model; link and eval are timed
    mfe_check: bool = False      # accuracy must reach the most-frequent-entity baseline
    named_layers: tuple = ()     # layers expected to dominate the traced wall

    def make_corpus(self, out_dir: str, seed: int, preset: str) -> dict[str, str]:
        sizes = self.corpus[preset]
        if self.synthetic:
            import typelink.synthetic as synthetic
            return synthetic.write_benchmark(out_dir, synthetic.BenchmarkSpec(seed=seed, **sizes))
        return write_corpus(out_dir, CorpusSpec(seed=seed, **sizes))

    def setup_argvs(self, corpus: dict, art: str) -> list[list[str]]:
        """Stage commands that build the model the timed commands read (link_reuse only)."""
        if not self.setup_trains:
            return []
        j = lambda name: os.path.join(art, name)  # noqa: E731
        common = ["--workers", "1", "--quiet"]
        # model_flags is (--vocab-size N, then the training flags)
        return [
            ["build-prior", "--articles", corpus["prior_articles"], "--prior", j("prior.tsv"),
             *common],
            ["ingest", "--articles", corpus["eval_articles"], "--categories", corpus["categories"],
             "--mentions", j("eval_mentions_raw.jsonl"), *common],
            ["build-vocab", "--mentions", j("eval_mentions_raw.jsonl"), "--prior", j("prior.tsv"),
             "--categories", corpus["categories"], "--vocab", j("vocab.txt"),
             *self.model_flags[:2], *common],
            ["ingest", "--articles", corpus["train_articles"], "--categories", corpus["categories"],
             "--vocab", j("vocab.txt"), "--mentions", j("train_mentions.jsonl"), *common],
            ["ingest", "--articles", corpus["eval_articles"], "--categories", corpus["categories"],
             "--vocab", j("vocab.txt"), "--keep-uncategorized",
             "--mentions", j("eval_mentions.jsonl"), *common],
            ["train", "--mentions", j("train_mentions.jsonl"), "--vocab", j("vocab.txt"),
             "--model", j("model.json"), *self.model_flags[2:], *common],
        ]

    def plan(self, corpus: dict, art: str, out: str) -> Plan:
        """Commands of one timed run writing into `out`; `art` holds set-up artifacts."""
        o = lambda name: os.path.join(out, name)  # noqa: E731
        if self.setup_trains:
            a = lambda name: os.path.join(art, name)  # noqa: E731
            timed = [
                Command("link", ["link", "--mentions", a("eval_mentions.jsonl"),
                                 "--model", a("model.json"), "--prior", a("prior.tsv"),
                                 "--categories", corpus["categories"],
                                 "--predictions", o("predictions.jsonl"),
                                 "--workers", "1", "--quiet"], [o("predictions.jsonl")]),
                Command("eval", ["eval", "--mentions", a("eval_mentions.jsonl"),
                                 "--predictions", o("predictions.jsonl"),
                                 "--model", a("model.json"), "--prior", a("prior.tsv"),
                                 "--report", o("report.json"), "--workers", "1", "--quiet"],
                        [o("report.json")]),
            ]
            src = a
        else:
            names = ["prior.tsv", "eval_mentions_raw.jsonl", "vocab.txt", "train_mentions.jsonl",
                     "eval_mentions.jsonl", "model.json", "predictions.jsonl", "report.json"]
            timed = [Command("pipeline", [
                "pipeline", "--articles", corpus["train_articles"],
                "--eval-articles", corpus["eval_articles"],
                "--prior-articles", corpus["prior_articles"],
                "--categories", corpus["categories"], "--workdir", out,
                *self.model_flags, "--workers", "1", "--quiet"], [o(n) for n in names])]
            src = o
        artifacts = {"prior": src("prior.tsv"), "vocab": src("vocab.txt"), "model": src("model.json"),
                     "train_mentions": src("train_mentions.jsonl"),
                     "eval_mentions_raw": src("eval_mentions_raw.jsonl"),
                     "eval_mentions": src("eval_mentions.jsonl")}
        return Plan(timed, artifacts, o("predictions.jsonl"), o("report.json"))


SMOKE_CORPUS = {"n_surfaces": 60, "n_tail_surfaces": 40, "n_train_articles": 12,
                "n_eval_articles": 8, "n_prior_articles": 16}

WORKLOADS = {
    "train_wide": Workload(
        name="train_wide",
        corpus={"full": {"n_categories": 100, "n_train_sentences": 2000, "n_test": 1000},
                "smoke": {"n_categories": 20, "n_train_sentences": 200, "n_test": 60}},
        model_flags=("--feature-dim", "8192", "--epochs", "2"),
        synthetic=True,
        mfe_check=True,
        named_layers=("model.save", "model.load", "model.train"),
    ),
    "text_heavy": Workload(
        name="text_heavy",
        corpus={"full": {"n_train_articles": 100, "n_eval_articles": 90,
                         "n_prior_articles": 450},
                "smoke": SMOKE_CORPUS},
        model_flags=("--vocab-size", "32", "--feature-dim", "8192", "--epochs", "3"),
        named_layers=("ingest.iter_articles", "ingest.extract_examples",
                      "ingest.attach_categories", "ingest.read_examples",
                      "ingest.write_examples", "ingest.load_category_assignments",
                      "model.featurize"),
    ),
    "link_reuse": Workload(
        name="link_reuse",
        corpus={"full": {"n_train_articles": 150, "n_eval_articles": 90,
                         "n_prior_articles": 500},
                "smoke": SMOKE_CORPUS},
        model_flags=("--vocab-size", "128", "--feature-dim", "2048", "--epochs", "3"),
        setup_trains=True,
        named_layers=("model.load", "model.featurize", "model.predict"),
    ),
}
