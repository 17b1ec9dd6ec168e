"""Command-line pipeline with file-based stages.

Subcommands: ingest, build-vocab, build-prior, train, link, eval, and
pipeline (all of them in order).  Every stage reads and writes plain
files so any step can be rerun or swapped out.  Each subcommand runs one
``stage_*`` function on its parsed arguments and prints the diagnostic
counts it returns; ``pipeline`` runs the same functions on its own
arguments with each stage's paths filled in.  Failures exit nonzero with
a one-line message of the form ``error: CODE: detail``.

All randomness flows through --seed, which only the stages that sample
(ingest, train, pipeline) accept.  Outputs are byte-reproducible;
--workers only splits article parsing across processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

from . import diagnostics as diag
from .atomic import atomic_write
from .categories import CategoryVocab, select_vocabulary
from .diagnostics import DiagnosticLog
from .evaluation import (ContextMode, EvalReport, build_context, linking_accuracy,
                         typing_metrics, TYPING_THRESHOLD)
from .ingest import (MentionExample, RawArticle, attach_categories, extract_examples,
                     iter_articles, load_category_assignments, read_examples,
                     sample_training_set, write_examples)
from .linker import (DEFAULT_BACKOFF_MIN_CATS, DEFAULT_TIE_EPS, SCORING_MODES,
                     build_category_index, link)
from .model import TrainConfig, TypingModel, predict_example, train
from .prior import DEFAULT_CANDIDATE_THRESHOLD, PriorTable, accumulate, gold_recall


class CliError(Exception):
    """Stage failure with a machine-parsable code."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def _require(path: str, code: str) -> str:
    if not os.path.exists(path):
        raise CliError(code, path)
    return path


def _extract_chunk(articles: list[RawArticle]) -> tuple[list[MentionExample], DiagnosticLog]:
    log = DiagnosticLog()
    return [ex for art in articles for ex in extract_examples(art, log)], log


def _extract_all(articles: list[RawArticle], workers: int,
                 log: DiagnosticLog) -> list[MentionExample]:
    """Extract every article's examples, in input order, over `workers` processes."""
    if workers <= 1 or len(articles) < 2:
        results = [_extract_chunk(articles)]
    else:
        step = -(-len(articles) // (workers * 4))
        chunks = [articles[i:i + step] for i in range(0, len(articles), step)]
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_extract_chunk, chunks))
    out: list[MentionExample] = []
    for examples, chunk_log in results:
        out.extend(examples)
        log.merge(chunk_log)
    return out


# --- stages ------------------------------------------------------------------
#
# Each stage takes the parsed arguments of its subcommand (or the pipeline's,
# with the stage's paths set) and returns the diagnostics of what it dropped.

def stage_build_prior(args: argparse.Namespace) -> DiagnosticLog:
    _require(args.articles, "ARTICLES_NOT_FOUND")
    log = DiagnosticLog()
    articles = list(iter_articles(args.articles, split=args.split, log=log))
    examples = _extract_all(articles, args.workers, log)
    table = accumulate(((ex.mention, ex.entity) for ex in examples), case_fold=args.case_fold)
    table.save(args.prior)
    return log


def stage_ingest(args: argparse.Namespace) -> DiagnosticLog:
    """Parse articles into mention examples, optionally labeled and sampled.

    Without a vocabulary the examples keep entity but no categories (the
    form build-vocab consumes); with one, labels are expanded raw
    categories intersected with it.
    """
    _require(args.articles, "ARTICLES_NOT_FOUND")
    _require(args.categories, "CATEGORIES_NOT_FOUND")
    log = DiagnosticLog()
    articles = list(iter_articles(args.articles, split=args.split, log=log))
    examples = _extract_all(articles, args.workers, log)
    if args.vocab is not None:
        _require(args.vocab, "VOCAB_NOT_FOUND")
        vocab = CategoryVocab.load(args.vocab)
        assignments = load_category_assignments(args.categories, log)
        examples = attach_categories(examples, assignments, vocab,
                                     keep_uncategorized=args.keep_uncategorized, log=log)
    write_examples(args.mentions, examples)
    wants_sample = [value is not None for value in
                    (args.sample_train, args.sample_dev, args.train_out, args.dev_out)]
    if any(wants_sample):
        if not all(wants_sample):
            raise CliError("INVALID_INPUT",
                           "sampling needs --sample-train, --sample-dev, "
                           "--train-out and --dev-out together")
        train_set, dev_set = sample_training_set(examples, args.sample_train,
                                                 args.sample_dev, args.seed)
        write_examples(args.train_out, train_set)
        write_examples(args.dev_out, dev_set)
    return log


def stage_build_vocab(args: argparse.Namespace) -> DiagnosticLog:
    """Select the category vocabulary from candidate entities of the mentions.

    Only candidate categories are counted, never the gold labels of the
    mention examples themselves.
    """
    _require(args.mentions, "MENTIONS_NOT_FOUND")
    _require(args.prior, "PRIOR_NOT_FOUND")
    _require(args.categories, "CATEGORIES_NOT_FOUND")
    examples = read_examples(args.mentions)
    table = PriorTable.load(args.prior)
    log = DiagnosticLog()
    assignments = load_category_assignments(args.categories, log)

    def stream():
        for ex in examples:
            for entity, _prob in table.candidates(ex.mention, args.threshold).candidates:
                assignment = assignments.get(entity)
                if assignment is not None:
                    yield ex.mention, entity, assignment.categories

    select_vocabulary(stream(), args.vocab_size).save(args.vocab)
    return log


def _labeled_pairs(examples: list[MentionExample], vocab: CategoryVocab,
                   context_mode: str, log: DiagnosticLog
                   ) -> list[tuple[MentionExample, list[int]]]:
    """(context, label ids) per example; examples without a vocabulary label are dropped."""
    pairs = []
    for ex in examples:
        ids = vocab.to_ids(ex.categories or [])
        if not ids:
            log.bump(diag.UNLABELED_EXAMPLE)
            continue
        pairs.append((build_context(ex, context_mode), ids))
    return pairs


def stage_train(args: argparse.Namespace) -> DiagnosticLog:
    # The training flags' dests are the TrainConfig field names.
    config = TrainConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(TrainConfig)})
    _require(args.mentions, "MENTIONS_NOT_FOUND")
    _require(args.vocab, "VOCAB_NOT_FOUND")
    vocab = CategoryVocab.load(args.vocab)
    log = DiagnosticLog()
    pairs = _labeled_pairs(read_examples(args.mentions), vocab, args.context_mode, log)
    dev_pairs = None
    if args.dev_mentions is not None:
        _require(args.dev_mentions, "MENTIONS_NOT_FOUND")
        dev_pairs = _labeled_pairs(read_examples(args.dev_mentions), vocab,
                                   args.context_mode, log)

    def report(epoch: int, train_loss: float, dev_loss: Optional[float]) -> None:
        if args.quiet:
            return
        line = f"epoch {epoch}: train_loss={train_loss:.6f}"
        if dev_loss is not None:
            line += f" dev_loss={dev_loss:.6f}"
        print(line, file=sys.stderr)

    model = train(pairs, vocab, config, dev_pairs=dev_pairs, on_epoch=report)
    dataclasses.replace(model, context_mode=args.context_mode).save(args.model)
    return log


def stage_link(args: argparse.Namespace) -> DiagnosticLog:
    """Predict an entity for each mention; one JSON object per input line.

    Mentions with an empty candidate set produce a null prediction and a
    diagnostic rather than failing the whole run.
    """
    _require(args.mentions, "MENTIONS_NOT_FOUND")
    _require(args.model, "MODEL_NOT_FOUND")
    _require(args.prior, "PRIOR_NOT_FOUND")
    _require(args.categories, "CATEGORIES_NOT_FOUND")
    model = TypingModel.load(args.model)
    table = PriorTable.load(args.prior)
    log = DiagnosticLog()
    index = build_category_index(load_category_assignments(args.categories, log),
                                 model.vocab)
    with atomic_write(args.predictions) as fh:
        for ex in read_examples(args.mentions):
            cset = table.candidates(ex.mention, args.threshold)
            if len(cset) == 0:
                log.bump(diag.NO_CANDIDATES)
                row = {"mention": ex.mention, "chosen": None,
                       "used_backoff": False, "scores": []}
            else:
                posterior = predict_example(model, build_context(ex, model.context_mode))
                pred = link(posterior, cset, index, table,
                            backoff_min_cats=args.backoff_min_cats, tie_eps=args.tie_eps,
                            mode=args.scoring_mode, log=log)
                row = {"mention": ex.mention, "chosen": pred.chosen,
                       "used_backoff": pred.used_backoff,
                       "scores": [[e, s] for e, s in pred.scores]}
            fh.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n")
    return log


def read_predictions(path: str) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


def stage_eval(args: argparse.Namespace) -> DiagnosticLog:
    """Score predictions against gold entities and, optionally, gold types.

    Gold recall needs the prior (to rebuild candidate sets); the typing
    buckets need the model (to rebuild posteriors).  Either is skipped,
    and reported as null, when the corresponding file is not given.
    """
    _require(args.mentions, "MENTIONS_NOT_FOUND")
    _require(args.predictions, "PREDICTIONS_NOT_FOUND")
    examples = read_examples(args.mentions)
    predictions = read_predictions(args.predictions)
    if len(examples) != len(predictions):
        raise CliError("INVALID_INPUT",
                       f"{len(examples)} mentions but {len(predictions)} predictions")
    pairs = []
    for ex, pred in zip(examples, predictions):
        if pred.get("mention") != ex.mention:
            raise CliError("INVALID_INPUT",
                           f"prediction for {pred.get('mention')!r} does not match "
                           f"mention {ex.mention!r}")
        if ex.entity is None:
            raise CliError("INVALID_INPUT", "evaluation example without gold entity")
        pairs.append((pred.get("chosen"), ex.entity))
    accuracy = linking_accuracy(pairs)

    recall = None
    if args.prior is not None:
        _require(args.prior, "PRIOR_NOT_FOUND")
        table = PriorTable.load(args.prior)
        recall = gold_recall((table.candidates(ex.mention, args.threshold), ex.entity)
                             for ex in examples)

    buckets = None
    per_cat = None
    if args.model is not None:
        _require(args.model, "MODEL_NOT_FOUND")
        model = TypingModel.load(args.model)
        posteriors = [predict_example(model, build_context(ex, model.context_mode))
                      for ex in examples]
        golds = [model.vocab.to_ids(ex.categories or []) for ex in examples]
        buckets, per_cat = typing_metrics(posteriors, golds, model.vocab.entries,
                                          threshold=args.typing_threshold,
                                          with_per_category=args.per_category)

    report = EvalReport(accuracy, recall, buckets, per_cat)
    with atomic_write(args.report) as fh:
        json.dump(report.to_dict(), fh, ensure_ascii=False, separators=(",", ":"))
        fh.write("\n")
    if not args.quiet:
        _print_report(report)
    return DiagnosticLog()


def _print_report(report: EvalReport) -> None:
    print(f"linking_accuracy {report.linking_accuracy:.4f}")
    if report.gold_recall is not None:
        print(f"gold_recall      {report.gold_recall:.4f}")
    if report.typing_buckets is not None:
        print(f"{'bucket':>12}  {'P':>7}  {'R':>7}  {'F1':>7}  {'cats':>6}")
        for b in report.typing_buckets:
            print(f"{b.label:>12}  {b.precision:7.4f}  {b.recall:7.4f}  "
                  f"{b.f1:7.4f}  {b.n_categories:6d}")


def _print_diagnostics(args: argparse.Namespace, log: DiagnosticLog, stage: str = "") -> None:
    if log.total() and not args.quiet:
        print(f"{stage}diagnostics: {log.summary()}", file=sys.stderr)


def stage_pipeline(args: argparse.Namespace) -> DiagnosticLog:
    """Run the README's eight stage commands in order inside --workdir.

    Each stage runs on the pipeline's arguments with every path it reads
    set, and its diagnostics are printed under its name; the log returned
    is empty.  --categories is the same file for every stage.
    """
    os.makedirs(args.workdir, exist_ok=True)

    def path(override: Optional[str], name: str) -> str:
        return override or os.path.join(args.workdir, name)

    prior = path(args.prior, "prior.tsv")
    raw = os.path.join(args.workdir, "eval_mentions_raw.jsonl")
    vocab = path(args.vocab, "vocab.txt")
    train_mentions = path(args.mentions, "train_mentions.jsonl")
    eval_mentions = path(args.eval_mentions, "eval_mentions.jsonl")
    model = path(args.model, "model.json")
    predictions = path(args.predictions, "predictions.jsonl")
    steps = [
        ("build-prior", stage_build_prior,
         dict(articles=args.prior_articles or args.articles, prior=prior)),
        ("ingest", stage_ingest, dict(articles=args.eval_articles, mentions=raw, vocab=None)),
        ("build-vocab", stage_build_vocab, dict(mentions=raw, prior=prior, vocab=vocab)),
        ("ingest", stage_ingest,
         dict(articles=args.articles, mentions=train_mentions, vocab=vocab)),
        ("ingest", stage_ingest, dict(articles=args.eval_articles, mentions=eval_mentions,
                                      vocab=vocab, keep_uncategorized=True)),
        ("train", stage_train, dict(mentions=train_mentions, vocab=vocab, model=model)),
        ("link", stage_link, dict(mentions=eval_mentions, model=model, prior=prior,
                                  predictions=predictions)),
        ("eval", stage_eval, dict(mentions=eval_mentions, predictions=predictions,
                                  report=path(args.report, "report.json"),
                                  model=model, prior=prior)),
    ]
    for name, stage, paths in steps:
        _print_diagnostics(args, stage(argparse.Namespace(**{**vars(args), **paths})),
                           f"{name} ")
    return DiagnosticLog()


# --- argument plumbing -------------------------------------------------------

# Every stage setting, declared once: a subcommand takes the settings its
# stage reads, and `pipeline` takes them all.
SETTINGS = {
    "--split": dict(action="store_true"),
    "--case-fold": dict(action="store_true"),
    "--vocab-size": dict(type=int, default=60000),
    "--threshold": dict(type=float, default=DEFAULT_CANDIDATE_THRESHOLD),
    "--context-mode": dict(choices=[m.value for m in ContextMode],
                           default=ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE.value),
    "--learning-rate": dict(type=float, default=TrainConfig.learning_rate),
    "--epochs": dict(type=int, default=TrainConfig.epochs),
    "--batch-size": dict(type=int, default=TrainConfig.batch_size),
    "--l2-penalty": dict(type=float, default=TrainConfig.l2_penalty),
    "--feature-dim": dict(type=int, default=TrainConfig.feature_dim),
    "--hash-seed": dict(type=int, default=TrainConfig.hash_seed),
    "--seed": dict(type=int, default=0),
    "--backoff-min-cats": dict(type=int, default=DEFAULT_BACKOFF_MIN_CATS),
    "--tie-eps": dict(type=float, default=DEFAULT_TIE_EPS),
    "--scoring-mode": dict(choices=SCORING_MODES, default="sum"),
    "--typing-threshold": dict(type=float, default=TYPING_THRESHOLD),
    "--per-category": dict(action="store_true"),
}
TRAIN_SETTINGS = ("--learning-rate", "--epochs", "--batch-size", "--l2-penalty",
                  "--feature-dim", "--hash-seed", "--seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typelink",
        description="Link entity mentions by predicting fine-grained categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, stage, help, paths, optional_paths=(), settings=()):
        """A subparser that runs `stage`; `paths` are its required path flags."""
        p = sub.add_parser(name, help=help)
        for flag in paths:
            p.add_argument(flag, required=True)
        for flag in optional_paths:
            p.add_argument(flag)
        for flag in settings:
            p.add_argument(flag, **SETTINGS[flag])
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(run=stage)
        return p

    p = subcommand("ingest", stage_ingest, "parse articles into mention examples",
                   ("--articles", "--categories", "--mentions"),
                   ("--vocab", "--train-out", "--dev-out"), ("--split", "--seed"))
    p.add_argument("--keep-uncategorized", action="store_true")
    p.add_argument("--sample-train", type=int)
    p.add_argument("--sample-dev", type=int)
    subcommand("build-prior", stage_build_prior, "count anchor statistics",
               ("--articles", "--prior"), settings=("--split", "--case-fold"))
    subcommand("build-vocab", stage_build_vocab, "select the category vocabulary",
               ("--mentions", "--prior", "--categories", "--vocab"),
               settings=("--vocab-size", "--threshold"))
    subcommand("train", stage_train, "train the typing model",
               ("--mentions", "--vocab", "--model"), ("--dev-mentions",),
               ("--context-mode", *TRAIN_SETTINGS))
    subcommand("link", stage_link, "choose an entity for each mention",
               ("--mentions", "--model", "--prior", "--categories", "--predictions"),
               settings=("--threshold", "--backoff-min-cats", "--tie-eps", "--scoring-mode"))
    subcommand("eval", stage_eval, "score predictions",
               ("--mentions", "--predictions", "--report"), ("--model", "--prior"),
               ("--threshold", "--typing-threshold", "--per-category"))
    p = subcommand("pipeline", stage_pipeline, "run all stages",
                   ("--articles", "--eval-articles", "--categories"),
                   ("--prior-articles", "--mentions", "--eval-mentions", "--vocab",
                    "--prior", "--model", "--predictions", "--report"), SETTINGS)
    p.add_argument("--workdir", default=".")
    # Single-stage inputs the pipeline never sets (eval ingest's
    # keep_uncategorized is set by its step).
    p.set_defaults(keep_uncategorized=False, sample_train=None, sample_dev=None,
                   train_out=None, dev_out=None, dev_mentions=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        log = args.run(args)
    except CliError as err:
        code, detail = err.code, err.detail
    except FloatingPointError as err:
        code, detail = "TRAINING_DIVERGED", err
    except (ValueError, KeyError) as err:  # json.JSONDecodeError is a ValueError
        code, detail = "INVALID_INPUT", err
    except OSError as err:
        code, detail = "IO_ERROR", err
    else:
        _print_diagnostics(args, log)
        return 0
    print(f"error: {code}: {detail}", file=sys.stderr)
    return 2
