"""Command-line pipeline with file-based stages.

Subcommands: ingest, build-vocab, build-prior, train, link, eval, and
pipeline (all of them in order).  Every stage reads and writes plain
files so any step can be rerun or swapped out.  Failures exit nonzero
with a one-line message of the form ``error: CODE: detail``.

All randomness flows through --seed, which only the stages that sample
(ingest, train, pipeline) accept.  Outputs are byte-reproducible;
--workers only splits article parsing across processes.
"""

from __future__ import annotations

import argparse
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
from .model import (DEFAULT_FEATURE_DIM, DEFAULT_HASH_SEED, TrainConfig, TypingModel,
                    predict_example, train)
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


def _extract_chunk(articles: list[RawArticle]) -> tuple[list[MentionExample], dict]:
    log = DiagnosticLog()
    examples = [ex for art in articles for ex in extract_examples(art, log)]
    return examples, dict(log.counts)


def _extract_all(articles: list[RawArticle], workers: int,
                 log: DiagnosticLog) -> list[MentionExample]:
    if workers <= 1 or len(articles) < 2:
        return _merge_chunks([_extract_chunk(articles)], log)
    n_chunks = max(workers * 4, 1)
    step = max(1, (len(articles) + n_chunks - 1) // n_chunks)
    chunks = [articles[i:i + step] for i in range(0, len(articles), step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_extract_chunk, chunks))
    return _merge_chunks(results, log)


def _merge_chunks(results, log: DiagnosticLog) -> list[MentionExample]:
    out: list[MentionExample] = []
    for examples, counts in results:
        out.extend(examples)
        for key, value in counts.items():
            log.bump(key, value)
    return out


# --- stages ------------------------------------------------------------------

def stage_build_prior(articles_path: str, prior_path: str, split: bool = False,
                      case_fold: bool = False, workers: int = 1) -> DiagnosticLog:
    _require(articles_path, "ARTICLES_NOT_FOUND")
    log = DiagnosticLog()
    articles = list(iter_articles(articles_path, split=split, log=log))
    examples = _extract_all(articles, workers, log)
    table = accumulate(((ex.mention, ex.entity) for ex in examples), case_fold=case_fold)
    table.save(prior_path)
    return log


def stage_ingest(articles_path: str, categories_path: str, mentions_path: str,
                 vocab_path: Optional[str] = None, split: bool = False,
                 keep_uncategorized: bool = False, workers: int = 1,
                 sample_train: Optional[int] = None, sample_dev: Optional[int] = None,
                 train_out: Optional[str] = None, dev_out: Optional[str] = None,
                 seed: int = 0) -> DiagnosticLog:
    """Parse articles into mention examples, optionally labeled and sampled.

    Without a vocabulary the examples keep entity but no categories (the
    form build-vocab consumes); with one, labels are expanded raw
    categories intersected with it.
    """
    _require(articles_path, "ARTICLES_NOT_FOUND")
    _require(categories_path, "CATEGORIES_NOT_FOUND")
    log = DiagnosticLog()
    articles = list(iter_articles(articles_path, split=split, log=log))
    examples = _extract_all(articles, workers, log)
    if vocab_path is not None:
        _require(vocab_path, "VOCAB_NOT_FOUND")
        vocab = CategoryVocab.load(vocab_path)
        assignments = load_category_assignments(categories_path, log)
        examples = attach_categories(examples, assignments, vocab,
                                     keep_uncategorized=keep_uncategorized, log=log)
    write_examples(mentions_path, examples)
    wants_sample = [sample_train is not None, sample_dev is not None,
                    train_out is not None, dev_out is not None]
    if any(wants_sample):
        if not all(wants_sample):
            raise CliError("INVALID_INPUT",
                           "sampling needs --sample-train, --sample-dev, "
                           "--train-out and --dev-out together")
        train_set, dev_set = sample_training_set(examples, sample_train, sample_dev, seed)
        write_examples(train_out, train_set)
        write_examples(dev_out, dev_set)
    return log


def stage_build_vocab(mentions_path: str, prior_path: str, categories_path: str,
                      vocab_path: str, vocab_size: int = 60000,
                      threshold: float = DEFAULT_CANDIDATE_THRESHOLD) -> CategoryVocab:
    """Select the category vocabulary from candidate entities of the mentions.

    Only candidate categories are counted, never the gold labels of the
    mention examples themselves.
    """
    _require(mentions_path, "MENTIONS_NOT_FOUND")
    _require(prior_path, "PRIOR_NOT_FOUND")
    _require(categories_path, "CATEGORIES_NOT_FOUND")
    examples = read_examples(mentions_path)
    table = PriorTable.load(prior_path)
    assignments = load_category_assignments(categories_path)

    def stream():
        for ex in examples:
            for entity, _prob in table.candidates(ex.mention, threshold).candidates:
                assignment = assignments.get(entity)
                if assignment is not None:
                    yield ex.mention, entity, assignment.categories

    vocab = select_vocabulary(stream(), vocab_size)
    vocab.save(vocab_path)
    return vocab


def _labeled_pairs(examples: list[MentionExample], vocab: CategoryVocab,
                   context_mode: str, log: DiagnosticLog,
                   drop_unlabeled: bool) -> list[tuple[MentionExample, list[int]]]:
    pairs = []
    for ex in examples:
        ids = vocab.to_ids(ex.categories or [])
        if not ids and drop_unlabeled:
            log.bump(diag.UNLABELED_EXAMPLE)
            continue
        pairs.append((build_context(ex, context_mode), ids))
    return pairs


def stage_train(mentions_path: str, vocab_path: str, model_path: str,
                config: TrainConfig,
                dev_mentions_path: Optional[str] = None,
                context_mode: str = ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE,
                quiet: bool = False) -> TypingModel:
    _require(mentions_path, "MENTIONS_NOT_FOUND")
    _require(vocab_path, "VOCAB_NOT_FOUND")
    vocab = CategoryVocab.load(vocab_path)
    log = DiagnosticLog()
    pairs = _labeled_pairs(read_examples(mentions_path), vocab, context_mode, log,
                           drop_unlabeled=True)
    dev_pairs = None
    if dev_mentions_path is not None:
        _require(dev_mentions_path, "MENTIONS_NOT_FOUND")
        dev_pairs = _labeled_pairs(read_examples(dev_mentions_path), vocab,
                                   context_mode, log, drop_unlabeled=True)

    def report(epoch: int, train_loss: float, dev_loss: Optional[float]) -> None:
        if quiet:
            return
        line = f"epoch {epoch}: train_loss={train_loss:.6f}"
        if dev_loss is not None:
            line += f" dev_loss={dev_loss:.6f}"
        print(line, file=sys.stderr)

    model = train(pairs, vocab, config, dev_pairs=dev_pairs, on_epoch=report)
    model.save(model_path)
    if log.total() and not quiet:
        print(f"train diagnostics: {log.summary()}", file=sys.stderr)
    return model


def stage_link(mentions_path: str, model_path: str, prior_path: str,
               categories_path: str, predictions_path: str,
               threshold: float = DEFAULT_CANDIDATE_THRESHOLD,
               backoff_min_cats: int = DEFAULT_BACKOFF_MIN_CATS,
               tie_eps: float = DEFAULT_TIE_EPS,
               context_mode: str = ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE,
               scoring_mode: str = "sum") -> DiagnosticLog:
    """Predict an entity for each mention; one JSON object per input line.

    Mentions with an empty candidate set produce a null prediction and a
    diagnostic rather than failing the whole run.
    """
    _require(mentions_path, "MENTIONS_NOT_FOUND")
    _require(model_path, "MODEL_NOT_FOUND")
    _require(prior_path, "PRIOR_NOT_FOUND")
    _require(categories_path, "CATEGORIES_NOT_FOUND")
    model = TypingModel.load(model_path)
    table = PriorTable.load(prior_path)
    log = DiagnosticLog()
    index = build_category_index(load_category_assignments(categories_path, log),
                                 model.vocab)
    with atomic_write(predictions_path) as fh:
        for ex in read_examples(mentions_path):
            cset = table.candidates(ex.mention, threshold)
            if len(cset) == 0:
                log.bump(diag.NO_CANDIDATES)
                row = {"mention": ex.mention, "chosen": None,
                       "used_backoff": False, "scores": []}
            else:
                posterior = predict_example(model, build_context(ex, context_mode))
                pred = link(posterior, cset, index, table,
                            backoff_min_cats=backoff_min_cats, tie_eps=tie_eps,
                            mode=scoring_mode, log=log)
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


def stage_eval(mentions_path: str, predictions_path: str, report_path: str,
               model_path: Optional[str] = None, prior_path: Optional[str] = None,
               threshold: float = DEFAULT_CANDIDATE_THRESHOLD,
               typing_threshold: float = TYPING_THRESHOLD,
               context_mode: str = ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE,
               per_category: bool = False, quiet: bool = False) -> EvalReport:
    """Score predictions against gold entities and, optionally, gold types.

    Gold recall needs the prior (to rebuild candidate sets); the typing
    buckets need the model (to rebuild posteriors).  Either is skipped,
    and reported as null, when the corresponding file is not given.
    """
    _require(mentions_path, "MENTIONS_NOT_FOUND")
    _require(predictions_path, "PREDICTIONS_NOT_FOUND")
    examples = read_examples(mentions_path)
    predictions = read_predictions(predictions_path)
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
    if prior_path is not None:
        _require(prior_path, "PRIOR_NOT_FOUND")
        table = PriorTable.load(prior_path)
        recall = gold_recall((table.candidates(ex.mention, threshold), ex.entity)
                             for ex in examples)

    buckets = None
    per_cat = None
    if model_path is not None:
        _require(model_path, "MODEL_NOT_FOUND")
        model = TypingModel.load(model_path)
        posteriors = [predict_example(model, build_context(ex, context_mode))
                      for ex in examples]
        golds = [model.vocab.to_ids(ex.categories or []) for ex in examples]
        buckets, per_cat = typing_metrics(posteriors, golds, model.vocab.entries,
                                          threshold=typing_threshold,
                                          with_per_category=per_category)

    report = EvalReport(accuracy, recall, buckets, per_cat)
    with atomic_write(report_path) as fh:
        json.dump(report.to_dict(), fh, ensure_ascii=False, separators=(",", ":"))
        fh.write("\n")
    if not quiet:
        _print_report(report)
    return report


def _print_report(report: EvalReport) -> None:
    print(f"linking_accuracy {report.linking_accuracy:.4f}")
    if report.gold_recall is not None:
        print(f"gold_recall      {report.gold_recall:.4f}")
    if report.typing_buckets is not None:
        print(f"{'bucket':>12}  {'P':>7}  {'R':>7}  {'F1':>7}  {'cats':>6}")
        for b in report.typing_buckets:
            print(f"{b.label:>12}  {b.precision:7.4f}  {b.recall:7.4f}  "
                  f"{b.f1:7.4f}  {b.n_categories:6d}")


def stage_pipeline(args: argparse.Namespace) -> EvalReport:
    """Run every stage in order inside --workdir."""
    workdir = args.workdir
    os.makedirs(workdir, exist_ok=True)

    def wpath(name: str, override: Optional[str]) -> str:
        return override if override else os.path.join(workdir, name)

    prior_path = wpath("prior.tsv", args.prior)
    eval_raw_path = os.path.join(workdir, "eval_mentions_raw.jsonl")
    vocab_path = wpath("vocab.txt", args.vocab)
    train_mentions = wpath("train_mentions.jsonl", args.mentions)
    eval_mentions = wpath("eval_mentions.jsonl", args.eval_mentions)
    model_path = wpath("model.json", args.model)
    predictions_path = wpath("predictions.jsonl", args.predictions)
    report_path = wpath("report.json", args.report)

    prior_articles = args.prior_articles or args.articles
    stage_build_prior(prior_articles, prior_path, split=args.split,
                      case_fold=args.case_fold, workers=args.workers)
    stage_ingest(args.eval_articles, args.categories, eval_raw_path,
                 vocab_path=None, split=args.split, workers=args.workers)
    stage_build_vocab(eval_raw_path, prior_path, args.categories, vocab_path,
                      vocab_size=args.vocab_size, threshold=args.threshold)
    stage_ingest(args.articles, args.categories, train_mentions,
                 vocab_path=vocab_path, split=args.split, workers=args.workers)
    stage_ingest(args.eval_articles, args.categories, eval_mentions,
                 vocab_path=vocab_path, split=args.split,
                 keep_uncategorized=True, workers=args.workers)
    config = _train_config(args)
    stage_train(train_mentions, vocab_path, model_path, config,
                context_mode=args.context_mode, quiet=args.quiet)
    stage_link(eval_mentions, model_path, prior_path, args.categories,
               predictions_path, threshold=args.threshold,
               backoff_min_cats=args.backoff_min_cats, tie_eps=args.tie_eps,
               context_mode=args.context_mode, scoring_mode=args.scoring_mode)
    return stage_eval(eval_mentions, predictions_path, report_path,
                      model_path=model_path, prior_path=prior_path,
                      threshold=args.threshold, typing_threshold=args.typing_threshold,
                      context_mode=args.context_mode, per_category=args.per_category,
                      quiet=args.quiet)


# --- argument plumbing -------------------------------------------------------

def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                       batch_size=args.batch_size, l2_penalty=args.l2_penalty,
                       seed=args.seed, feature_dim=args.feature_dim,
                       hash_seed=args.hash_seed)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--l2-penalty", type=float, default=0.0)
    p.add_argument("--feature-dim", type=int, default=DEFAULT_FEATURE_DIM)
    p.add_argument("--hash-seed", type=int, default=DEFAULT_HASH_SEED)
    p.add_argument("--seed", type=int, default=0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--quiet", action="store_true")


def _context_mode_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--context-mode",
                   choices=[m.value for m in ContextMode],
                   default=ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE.value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typelink",
        description="Link entity mentions by predicting fine-grained categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse articles into mention examples")
    p.add_argument("--articles", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--mentions", required=True)
    p.add_argument("--vocab")
    p.add_argument("--split", action="store_true")
    p.add_argument("--keep-uncategorized", action="store_true")
    p.add_argument("--sample-train", type=int)
    p.add_argument("--sample-dev", type=int)
    p.add_argument("--train-out")
    p.add_argument("--dev-out")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("build-prior", help="count anchor statistics")
    p.add_argument("--articles", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--split", action="store_true")
    p.add_argument("--case-fold", action="store_true")
    _add_common(p)

    p = sub.add_parser("build-vocab", help="select the category vocabulary")
    p.add_argument("--mentions", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--vocab-size", type=int, default=60000)
    p.add_argument("--threshold", type=float, default=DEFAULT_CANDIDATE_THRESHOLD)
    _add_common(p)

    p = sub.add_parser("train", help="train the typing model")
    p.add_argument("--mentions", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dev-mentions")
    _context_mode_flag(p)
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("link", help="choose an entity for each mention")
    p.add_argument("--mentions", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_CANDIDATE_THRESHOLD)
    p.add_argument("--backoff-min-cats", type=int, default=DEFAULT_BACKOFF_MIN_CATS)
    p.add_argument("--tie-eps", type=float, default=DEFAULT_TIE_EPS)
    p.add_argument("--scoring-mode", choices=SCORING_MODES, default="sum")
    _context_mode_flag(p)
    _add_common(p)

    p = sub.add_parser("eval", help="score predictions")
    p.add_argument("--mentions", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--model")
    p.add_argument("--prior")
    p.add_argument("--threshold", type=float, default=DEFAULT_CANDIDATE_THRESHOLD)
    p.add_argument("--typing-threshold", type=float, default=TYPING_THRESHOLD)
    p.add_argument("--per-category", action="store_true")
    _context_mode_flag(p)
    _add_common(p)

    p = sub.add_parser("pipeline", help="run all stages")
    p.add_argument("--articles", required=True)
    p.add_argument("--eval-articles", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--prior-articles")
    p.add_argument("--workdir", default=".")
    p.add_argument("--mentions")
    p.add_argument("--eval-mentions")
    p.add_argument("--vocab")
    p.add_argument("--prior")
    p.add_argument("--model")
    p.add_argument("--predictions")
    p.add_argument("--report")
    p.add_argument("--vocab-size", type=int, default=60000)
    p.add_argument("--threshold", type=float, default=DEFAULT_CANDIDATE_THRESHOLD)
    p.add_argument("--typing-threshold", type=float, default=TYPING_THRESHOLD)
    p.add_argument("--backoff-min-cats", type=int, default=DEFAULT_BACKOFF_MIN_CATS)
    p.add_argument("--tie-eps", type=float, default=DEFAULT_TIE_EPS)
    p.add_argument("--scoring-mode", choices=SCORING_MODES, default="sum")
    p.add_argument("--split", action="store_true")
    p.add_argument("--case-fold", action="store_true")
    p.add_argument("--per-category", action="store_true")
    _context_mode_flag(p)
    _add_train_flags(p)
    _add_common(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            log = stage_ingest(args.articles, args.categories, args.mentions,
                               vocab_path=args.vocab, split=args.split,
                               keep_uncategorized=args.keep_uncategorized,
                               workers=args.workers, sample_train=args.sample_train,
                               sample_dev=args.sample_dev, train_out=args.train_out,
                               dev_out=args.dev_out, seed=args.seed)
        elif args.command == "build-prior":
            log = stage_build_prior(args.articles, args.prior, split=args.split,
                                    case_fold=args.case_fold, workers=args.workers)
        elif args.command == "build-vocab":
            stage_build_vocab(args.mentions, args.prior, args.categories, args.vocab,
                              vocab_size=args.vocab_size, threshold=args.threshold)
            log = None
        elif args.command == "train":
            stage_train(args.mentions, args.vocab, args.model, _train_config(args),
                        dev_mentions_path=args.dev_mentions,
                        context_mode=args.context_mode, quiet=args.quiet)
            log = None
        elif args.command == "link":
            log = stage_link(args.mentions, args.model, args.prior, args.categories,
                             args.predictions, threshold=args.threshold,
                             backoff_min_cats=args.backoff_min_cats,
                             tie_eps=args.tie_eps, context_mode=args.context_mode,
                             scoring_mode=args.scoring_mode)
        elif args.command == "eval":
            stage_eval(args.mentions, args.predictions, args.report,
                       model_path=args.model, prior_path=args.prior,
                       threshold=args.threshold, typing_threshold=args.typing_threshold,
                       context_mode=args.context_mode, per_category=args.per_category,
                       quiet=args.quiet)
            log = None
        else:
            stage_pipeline(args)
            log = None
    except CliError as err:
        print(f"error: {err.code}: {err.detail}", file=sys.stderr)
        return 2
    except FloatingPointError as err:
        print(f"error: TRAINING_DIVERGED: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: INVALID_INPUT: {err}", file=sys.stderr)
        return 2
    if log is not None and log.total() and not args.quiet:
        print(f"diagnostics: {log.summary()}", file=sys.stderr)
    return 0
