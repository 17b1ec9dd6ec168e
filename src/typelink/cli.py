"""Command-line pipeline with file-based stages.

Subcommands: ingest, build-vocab, build-prior, train, link, eval, and
pipeline (all of them in order).  Every stage reads and writes plain
files so any step can be rerun or swapped out.  Each subcommand checks
its settings and paths (``check_args``), runs one ``stage_*`` function
on its parsed arguments and prints the diagnostic counts it returns;
``pipeline`` runs the same functions on its own arguments with each
stage's paths filled in (see ``stage_pipeline``).
Failures exit nonzero with a one-line message of the form
``error: CODE: detail``.

All randomness flows through --seed, which only the stages that sample
(ingest, train, pipeline) accept.  Outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import AbstractSet, Collection, Iterable, Optional, Sequence

from . import diagnostics as diag
from .atomic import atomic_write
from .categories import CategoryVocab, check_vocab_size, select_vocabulary
from .diagnostics import DiagnosticLog
from .evaluation import (ContextMode, EvalReport, build_context, check_typing_threshold,
                         linking_accuracy, typing_metrics, TYPING_THRESHOLD)
from .ingest import (MentionExample, attach_categories, check_sample_sizes,
                     extract_examples, iter_articles, iter_json_lines, json_line,
                     link_pairs, load_category_assignments, read_examples,
                     sample_training_set, write_examples)
from .linker import (DEFAULT_BACKOFF_MIN_CATS, DEFAULT_TIE_EPS, SCORING_MODES,
                     LinkPrediction, build_category_index, check_backoff, link,
                     most_frequent_entity)
from .model import TrainConfig, TypingModel, predict_example, train
from .prior import (DEFAULT_CANDIDATE_THRESHOLD, CandidateSet, PriorTable, accumulate,
                    check_candidate_threshold, gold_recall)


class CliError(Exception):
    """A refused path, reported under its code: CliError(code, detail)."""


# --- stages ------------------------------------------------------------------
#
# Each stage takes the parsed arguments of its subcommand (or the pipeline's,
# with the stage's paths set), already checked by `check_args`, and returns
# the diagnostics of what it dropped.  `args.handoff` is None except in
# `pipeline` (see `stage_pipeline`).

def _handed(args: argparse.Namespace, path: str, load, take: bool = True):
    """The object an earlier stage of the run wrote to `path`, taken out of the
    handoff unless `take` is false, or else `load(path)`."""
    if args.handoff is not None and path in args.handoff:
        return args.handoff.pop(path) if take else args.handoff[path]
    return load(path)


@dataclasses.dataclass(frozen=True)
class HandedTypes:
    """The types that build-vocab read from --categories.

    `types` gives each entity with a category line its sorted
    in-vocabulary types, one tuple per distinct label set; `read_for`
    holds every entity the file was read for, and `empty_category` is the
    read's count of that diagnostic.
    """

    types: dict[str, tuple[str, ...]]
    read_for: AbstractSet[str]
    empty_category: int

    @classmethod
    def build(cls, types: dict[str, frozenset[str]], read_for: AbstractSet[str],
              vocab: CategoryVocab, empty_category: int) -> "HandedTypes":
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}
        compact = {}
        for entity, categories in types.items():
            labels = tuple(sorted(c for c in categories if c in vocab))
            compact[entity] = shared.setdefault(labels, labels)
        return cls(compact, read_for, empty_category)

    def of(self, entities: Iterable[str], log: DiagnosticLog) -> dict[str, tuple[str, ...]]:
        """The types of `entities`, the read's empty_category count added to `log`."""
        if self.empty_category:
            log.counts[diag.EMPTY_CATEGORY] += self.empty_category
        return {entity: self.types[entity] for entity in entities if entity in self.types}


def _category_types(args: argparse.Namespace, entities: Iterable[str], log: DiagnosticLog,
                    take: bool) -> dict[str, Collection[str]]:
    """The types of `entities`: from the `HandedTypes` under --categories if
    it was read for all of them, or else read from the file."""
    entities = set(entities)
    handed = _handed(args, args.categories, lambda path: None, take)
    if handed is not None and entities <= handed.read_for:
        return handed.of(entities, log)
    return load_category_assignments(args.categories, entities, log)


def stage_build_prior(args: argparse.Namespace) -> DiagnosticLog:
    log = DiagnosticLog()
    pairs = (pair for art in iter_articles(args.articles, split=args.split, log=log)
             for pair in link_pairs(art, log))
    table = accumulate(pairs, case_fold=args.case_fold)
    table.save(args.prior)
    return log


def stage_ingest(args: argparse.Namespace) -> DiagnosticLog:
    """Parse articles into mention examples, optionally labeled and sampled.

    Without a vocabulary the examples keep entity but no categories (the
    form build-vocab consumes); with one, labels are expanded raw
    categories intersected with it.
    """
    log = DiagnosticLog()
    examples = [ex for art in iter_articles(args.articles, split=args.split, log=log)
                for ex in extract_examples(art, log)]
    if args.vocab is not None:
        vocab = CategoryVocab.load(args.vocab)
        types = _category_types(args, (ex.entity for ex in examples), log, take=False)
        examples = attach_categories(examples, types, vocab,
                                     keep_uncategorized=args.keep_uncategorized, log=log)
    # Sample before writing anything, so a request larger than the data
    # leaves no file behind either.
    outputs = [(args.mentions, examples)]
    if args.sample_train is not None:  # and so every sampling flag
        train_set, dev_set = sample_training_set(examples, args.sample_train,
                                                 args.sample_dev, args.seed)
        outputs += [(args.train_out, train_set), (args.dev_out, dev_set)]
    for path, rows in outputs:
        write_examples(path, rows)
    if args.handoff is not None:
        args.handoff[args.mentions] = examples
    return log


def _candidate_sets(args: argparse.Namespace, examples: list[MentionExample]
                    ) -> tuple[PriorTable, list[CandidateSet]]:
    """The prior and each example's candidate set."""
    table = PriorTable.load(args.prior)
    return table, [table.candidates(ex.mention, args.threshold) for ex in examples]


def stage_build_vocab(args: argparse.Namespace) -> DiagnosticLog:
    """Select the category vocabulary from candidate entities of the mentions.

    Only candidate categories are counted, never the gold labels of the
    mention examples themselves.
    """
    examples = _handed(args, args.mentions, read_examples)
    _, csets = _candidate_sets(args, examples)
    read_for = {entity for cset in csets for entity in cset.entities()}
    if args.handoff is not None:
        read_for.update(ex.entity for ex in examples)
    log = DiagnosticLog()
    types = load_category_assignments(args.categories, read_for, log)
    pairs = ((cset.mention, types[entity])
             for cset in csets for entity in cset.entities() if entity in types)
    vocab = select_vocabulary(pairs, args.vocab_size)
    vocab.save(args.vocab)
    if args.handoff is not None:
        args.handoff[args.categories] = HandedTypes.build(
            types, read_for, vocab, log.counts[diag.EMPTY_CATEGORY])
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


def _train_config(args: argparse.Namespace) -> TrainConfig:
    # The training flags' dests are the TrainConfig field names.
    return TrainConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(TrainConfig) if hasattr(args, f.name)})


def stage_train(args: argparse.Namespace) -> DiagnosticLog:
    config = _train_config(args)
    vocab = CategoryVocab.load(args.vocab)
    log = DiagnosticLog()
    pairs = _labeled_pairs(_handed(args, args.mentions, read_examples), vocab,
                           args.context_mode, log)
    dev_pairs = None
    if args.dev_mentions is not None:
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
    model = dataclasses.replace(model, context_mode=args.context_mode)
    model.save(args.model)
    if args.handoff is not None:
        args.handoff[args.model] = model
    return log


def stage_link(args: argparse.Namespace) -> DiagnosticLog:
    """Predict an entity for each mention; one JSON object per input line.

    Every row is written from a `LinkPrediction`.  A mention with an empty
    candidate set is not linked: its prediction has no scores, no choice
    and no backoff, and it is counted as a diagnostic rather than failing
    the whole run.
    """
    model = _handed(args, args.model, TypingModel.load, take=False)
    examples = _handed(args, args.mentions, read_examples, take=False)
    table, csets = _candidate_sets(args, examples)
    log = DiagnosticLog()
    types = _category_types(args, (entity for cset in csets for entity in cset.entities()),
                            log, take=True)
    index = build_category_index(types, model.vocab)
    kept = [] if args.handoff is not None else None  # (row, posterior) per mention
    with atomic_write(args.predictions) as fh:
        for ex, cset in zip(examples, csets):
            if len(cset) == 0:
                log.bump(diag.NO_CANDIDATES)
                posterior, pred = None, LinkPrediction([], None, False)
            else:
                posterior = predict_example(model, ex)
                pred = link(posterior, cset, index, table,
                            backoff_min_cats=args.backoff_min_cats, tie_eps=args.tie_eps,
                            mode=args.scoring_mode, log=log)
            row = {"mention": ex.mention, "chosen": pred.chosen,
                   "used_backoff": pred.used_backoff, "scores": [[e, s] for e, s in pred.scores]}
            fh.write(json_line(row))
            if kept is not None:
                kept.append((row, posterior))
    if kept is not None:
        args.handoff.update({args.prior: csets, args.predictions: kept})
    return log


def prediction_from_dict(row: dict) -> dict:
    """A predictions row as `link` writes it; ValueError names a field of the wrong type."""
    mention, chosen, scores = row["mention"], row["chosen"], row["scores"]
    if type(mention) is not str:
        raise ValueError("mention must be a string")
    if chosen is not None and type(chosen) is not str:
        raise ValueError("chosen must be a string or null")
    if type(row["used_backoff"]) is not bool:
        raise ValueError("used_backoff must be true or false")
    if type(scores) is not list or not all(
            type(pair) is list and len(pair) == 2 and type(pair[0]) is str
            and type(pair[1]) in (int, float) for pair in scores):
        raise ValueError("scores must be a list of [entity, number] pairs")
    return row


def read_predictions(path: str) -> list[dict]:
    return list(iter_json_lines(path, prediction_from_dict))


def stage_eval(args: argparse.Namespace) -> DiagnosticLog:
    """Score predictions against gold entities and, optionally, gold types.

    The prior gives each mention its candidate set under --threshold (in
    `pipeline`, the sets link built), and from those sets gold recall and
    `prior_accuracy`: the accuracy of the most-frequent-entity baseline,
    which picks `most_frequent_entity` of the set and counts a mention
    without candidates as wrong.  The typing buckets need the model (to
    rebuild posteriors).  Either group is skipped, and reported as null,
    when the corresponding file is not given.
    """
    examples = _handed(args, args.mentions, read_examples)
    predictions = _handed(args, args.predictions,
                          lambda path: [(row, None) for row in read_predictions(path)])
    if len(examples) != len(predictions):
        raise ValueError(f"{len(examples)} mentions but {len(predictions)} predictions")
    pairs = []
    for ex, (pred, _) in zip(examples, predictions):
        if pred["mention"] != ex.mention:
            raise ValueError(f"prediction for {pred['mention']!r} does not match "
                             f"mention {ex.mention!r}")
        if ex.entity is None:
            raise ValueError("evaluation example without gold entity")
        pairs.append((pred["chosen"], ex.entity))
    accuracy = linking_accuracy(pairs)

    recall = prior_accuracy = None
    if args.prior is not None:
        csets = _handed(args, args.prior, lambda _: _candidate_sets(args, examples)[1])
        entities = [gold for _, gold in pairs]
        recall = gold_recall(zip(csets, entities))
        prior_accuracy = linking_accuracy(
            [(most_frequent_entity(cset) if len(cset) else None, gold)
             for cset, gold in zip(csets, entities)])

    buckets = None
    per_cat = None
    if args.model is not None:
        model = _handed(args, args.model, TypingModel.load)
        posteriors = [predict_example(model, ex) if posterior is None else posterior
                      for ex, (_, posterior) in zip(examples, predictions)]
        golds = [model.vocab.to_ids(ex.categories or []) for ex in examples]
        buckets, per_cat = typing_metrics(posteriors, golds, model.vocab.entries,
                                          threshold=args.typing_threshold,
                                          with_per_category=args.per_category)

    report = EvalReport(linking_accuracy=accuracy, prior_accuracy=prior_accuracy,
                        gold_recall=recall, typing_buckets=buckets, per_category=per_cat)
    with atomic_write(args.report) as fh:
        fh.write(json_line(report.to_dict()))
    if not args.quiet:
        _print_report(report)
    return DiagnosticLog()


def _print_report(report: EvalReport) -> None:
    print(f"linking_accuracy {report.linking_accuracy:.4f}")
    if report.prior_accuracy is not None:
        print(f"prior_accuracy   {report.prior_accuracy:.4f}")
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
    is empty.  --categories is the same file for every stage.  Every file
    is written as the stage commands write it.

    One handoff dict serves the run, keyed by path.  A stage puts there
    what it makes: ingest its mentions, train its model, link its
    candidate sets (under --prior) and its rows with their posteriors
    (under --predictions), and build-vocab the types it read from
    --categories, cut to the vocabulary (`HandedTypes`).  A reader finds
    an object there (`_handed`) instead of reading its file, and its last
    reader takes it out, so the dict is empty after eval.  build-vocab
    reads --categories for the raw eval mentions' entities as well as the
    candidates; an ingest --vocab or link uses the handed types when they
    were read for every entity it asks about, and reads the file
    otherwise, so the file is read once or twice.  The prior and the
    vocabulary, small and read by several stages, are read from their
    files.  The labeled eval ingest runs after train, so that train holds
    only the mentions it reads.
    """
    os.makedirs(args.workdir, exist_ok=True)
    files = _pipeline_outputs(args)
    prior, raw, vocab = files["--prior"], files["--workdir"], files["--vocab"]
    train_mentions, eval_mentions = files["--mentions"], files["--eval-mentions"]
    model, predictions = files["--model"], files["--predictions"]
    steps = [  # (name, stage, its paths)
        ("build-prior", stage_build_prior,
         dict(articles=args.prior_articles or args.articles, prior=prior)),
        ("ingest", stage_ingest, dict(articles=args.eval_articles, mentions=raw, vocab=None)),
        ("build-vocab", stage_build_vocab, dict(mentions=raw, prior=prior, vocab=vocab)),
        ("ingest", stage_ingest,
         dict(articles=args.articles, mentions=train_mentions, vocab=vocab)),
        ("train", stage_train, dict(mentions=train_mentions, vocab=vocab, model=model)),
        ("ingest", stage_ingest, dict(articles=args.eval_articles, mentions=eval_mentions,
                                      vocab=vocab, keep_uncategorized=True)),
        ("link", stage_link, dict(mentions=eval_mentions, model=model, prior=prior,
                                  predictions=predictions)),
        ("eval", stage_eval, dict(mentions=eval_mentions, predictions=predictions,
                                  report=files["--report"], model=model, prior=prior)),
    ]
    handoff = {}
    for name, stage, paths in steps:
        log = stage(argparse.Namespace(**{**vars(args), **paths, "handoff": handoff}))
        _print_diagnostics(args, log, f"{name} ")
    return DiagnosticLog()


# --- argument plumbing -------------------------------------------------------

def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# Every stage setting, declared once: a subcommand takes the settings its
# stage reads, and `pipeline` takes them all.  The training settings are the
# TrainConfig fields, each flag typed and defaulted by its field.
TRAIN_SETTINGS = tuple(_flag(f.name) for f in dataclasses.fields(TrainConfig))
SETTINGS = {
    "--split": dict(action="store_true"),
    "--case-fold": dict(action="store_true"),
    "--vocab-size": dict(type=int, default=60000),
    "--threshold": dict(type=float, default=DEFAULT_CANDIDATE_THRESHOLD),
    "--context-mode": dict(choices=[m.value for m in ContextMode],
                           default=ContextMode.SENTENCE_PLUS_FIRST_DOC_SENTENCE.value),
    **{_flag(f.name): dict(type=type(f.default), default=f.default)
       for f in dataclasses.fields(TrainConfig)},
    "--backoff-min-cats": dict(type=int, default=DEFAULT_BACKOFF_MIN_CATS),
    "--tie-eps": dict(type=float, default=DEFAULT_TIE_EPS),
    "--scoring-mode": dict(choices=SCORING_MODES, default="sum"),
    "--typing-threshold": dict(type=float, default=TYPING_THRESHOLD),
    "--per-category": dict(action="store_true"),
}
# pipeline's output flags, each with the name its file has in --workdir when
# the flag is left out.
PIPELINE_OUTPUTS = {"--mentions": "train_mentions.jsonl",
                    "--eval-mentions": "eval_mentions.jsonl", "--vocab": "vocab.txt",
                    "--prior": "prior.tsv", "--model": "model.json",
                    "--predictions": "predictions.jsonl", "--report": "report.json"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typelink",
        description="Link entity mentions by predicting fine-grained categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, stage, help, reads, writes, optional=(), settings=()):
        """A subparser that runs `stage`, reads the path flags `reads` and writes
        `writes`; the flags in `optional` may be left out."""
        p = sub.add_parser(name, help=help)
        inputs, outputs = {}, []
        for flag in (*reads, *writes):
            action = p.add_argument(flag, required=flag not in optional)
            if flag in reads:
                # A missing input is reported under the kind of file its flag
                # names last: --eval-articles gives ARTICLES_NOT_FOUND.
                inputs[action.dest] = flag.rsplit("-", 1)[1].upper() + "_NOT_FOUND"
            else:
                outputs.append(action.dest)
        for flag in settings:
            p.add_argument(flag, **SETTINGS[flag])
        # Parsing runs in one process; --workers stays, fixed at 1, for
        # command lines that pin it.
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(run=stage, inputs=inputs, outputs=outputs, handoff=None)
        return p

    p = subcommand("ingest", stage_ingest, "parse articles into mention examples",
                   ("--articles", "--categories", "--vocab"),
                   ("--mentions", "--train-out", "--dev-out"),
                   ("--vocab", "--train-out", "--dev-out"), ("--split", "--seed"))
    p.add_argument("--keep-uncategorized", action="store_true")
    p.add_argument("--sample-train", type=int)
    p.add_argument("--sample-dev", type=int)
    subcommand("build-prior", stage_build_prior, "count anchor statistics",
               ("--articles",), ("--prior",), settings=("--split", "--case-fold"))
    subcommand("build-vocab", stage_build_vocab, "select the category vocabulary",
               ("--mentions", "--prior", "--categories"), ("--vocab",),
               settings=("--vocab-size", "--threshold"))
    subcommand("train", stage_train, "train the typing model",
               ("--mentions", "--vocab", "--dev-mentions"), ("--model",), ("--dev-mentions",),
               ("--context-mode", *TRAIN_SETTINGS))
    subcommand("link", stage_link, "choose an entity for each mention",
               ("--mentions", "--model", "--prior", "--categories"), ("--predictions",),
               settings=("--threshold", "--backoff-min-cats", "--tie-eps", "--scoring-mode"))
    subcommand("eval", stage_eval, "score predictions",
               ("--mentions", "--predictions", "--model", "--prior"), ("--report",),
               ("--model", "--prior"), ("--threshold", "--typing-threshold", "--per-category"))
    outputs = tuple(PIPELINE_OUTPUTS)
    p = subcommand("pipeline", stage_pipeline, "run all stages",
                   ("--articles", "--eval-articles", "--categories", "--prior-articles"),
                   outputs, ("--prior-articles", *outputs), SETTINGS)
    p.add_argument("--workdir", default=".")
    # Single-stage inputs the pipeline never sets (eval ingest's
    # keep_uncategorized is set by its step).
    p.set_defaults(keep_uncategorized=False, sample_train=None, sample_dev=None,
                   train_out=None, dev_out=None, dev_mentions=None)
    return parser


def _pipeline_outputs(args: argparse.Namespace) -> dict[str, str]:
    """Every file `pipeline` writes, by the flag that names it; the raw eval
    mentions, which have no flag, always go in --workdir."""
    files = {flag: getattr(args, flag[2:].replace("-", "_")) or os.path.join(args.workdir, name)
             for flag, name in PIPELINE_OUTPUTS.items()}
    files["--workdir"] = os.path.join(args.workdir, "eval_mentions_raw.jsonl")
    return files


def _same_file(a: str, b: str) -> bool:
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)  # hard links to one file
    except OSError:  # either is missing
        return False


def check_args(args: argparse.Namespace) -> None:
    """Refuse a bad setting, a missing input, an output in a missing
    directory, or an output that is another output or an input, before any
    stage reads or writes.

    `pipeline` takes every setting, so it checks all its stages' settings;
    its outputs, the --workdir defaults included, may also go in the
    --workdir it creates.
    """
    given = vars(args)
    _train_config(args)  # each training setting, --seed (ingest's sampling seed) too
    if "threshold" in given:
        check_candidate_threshold(args.threshold)
    if "vocab_size" in given:
        check_vocab_size(args.vocab_size)
    if "backoff_min_cats" in given:
        check_backoff(args.backoff_min_cats, args.tie_eps)
    if "typing_threshold" in given:
        check_typing_threshold(args.typing_threshold)
    if args.workers != 1:
        raise ValueError(f"--workers must be 1, got {args.workers}: "
                         "article parsing runs in one process")
    sampling = [given.get(dest) is not None
                for dest in ("sample_train", "sample_dev", "train_out", "dev_out")]
    if any(sampling) and not all(sampling):
        raise ValueError("sampling needs --sample-train, --sample-dev, "
                         "--train-out and --dev-out together")
    if all(sampling):
        check_sample_sizes(args.sample_train, args.sample_dev)
    for dest, code in args.inputs.items():
        if given[dest] is not None and not os.path.exists(given[dest]):
            raise CliError(code, given[dest])
    workdir = os.path.abspath(given["workdir"]) if "workdir" in given else None
    outputs = (_pipeline_outputs(args) if workdir is not None else
               {_flag(dest): given[dest] for dest in args.outputs if given[dest] is not None})
    for path in outputs.values():
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory) and directory != workdir:
            raise CliError("IO_ERROR", f"no directory for output {path}")
    files = [*outputs.items(),
             *((_flag(dest), given[dest]) for dest in args.inputs if given[dest] is not None)]
    for i, (flag, path) in enumerate(outputs.items()):
        for other, other_path in files[i + 1:]:
            if _same_file(path, other_path):
                raise ValueError(f"{flag} and {other} name one file: {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_args(args)
        log = args.run(args)
    except CliError as err:
        code, detail = err.args
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
