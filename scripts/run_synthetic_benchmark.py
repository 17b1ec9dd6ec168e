#!/usr/bin/env python3
"""End-to-end benchmark: typing-based linking vs the anchor-count prior.

Generates a synthetic corpus (unless --corpus points at an existing
one), runs the full pipeline on it, then reports linking accuracy next
to the most-frequent-entity baseline computed from the same prior
table.  The corpus is rigged so the baseline tops out low while the
context words identify the gold entity's categories.
"""

import argparse
import json
import os
import sys
import time

from typelink.cli import main as cli_main
from typelink.ingest import read_examples
from typelink.linker import most_frequent_entity
from typelink.prior import DEFAULT_CANDIDATE_THRESHOLD, PriorTable
from typelink.synthetic import BenchmarkSpec, corpus_paths, write_benchmark


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="benchmark_run",
                        help="where pipeline artifacts land")
    parser.add_argument("--corpus",
                        help="reuse a directory produced by make_synthetic_data.py")
    parser.add_argument("--train-sentences", type=int, default=5000)
    parser.add_argument("--test-examples", type=int, default=300)
    parser.add_argument("--feature-dim", type=int, default=1 << 15)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--quiet", action="store_true")
    return parser.parse_args()


def prepare_corpus(args):
    if args.corpus:
        return corpus_paths(args.corpus)
    spec = BenchmarkSpec(n_train_sentences=args.train_sentences,
                         n_test=args.test_examples)
    return write_benchmark(os.path.join(args.workdir, "corpus"), spec)


def baseline_accuracy(workdir):
    table = PriorTable.load(os.path.join(workdir, "prior.tsv"))
    examples = read_examples(os.path.join(workdir, "eval_mentions.jsonl"))
    hits = 0
    for ex in examples:
        cands = table.candidates(ex.mention, DEFAULT_CANDIDATE_THRESHOLD)
        if len(cands) and most_frequent_entity(cands) == ex.entity:
            hits += 1
    return hits / len(examples)


def main():
    args = parse_args()
    paths = prepare_corpus(args)
    argv = [
        "pipeline",
        "--articles", paths["train_articles"],
        "--eval-articles", paths["eval_articles"],
        "--prior-articles", paths["prior_articles"],
        "--categories", paths["categories"],
        "--workdir", args.workdir,
        "--feature-dim", str(args.feature_dim),
        "--epochs", str(args.epochs),
        "--seed", str(args.seed),
    ]
    if args.quiet:
        argv.append("--quiet")
    t0 = time.perf_counter()
    code = cli_main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        return code

    with open(os.path.join(args.workdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    mfe = baseline_accuracy(args.workdir)
    print()
    print(f"pipeline runtime           {elapsed:8.2f}s")
    print(f"typing linking accuracy    {report['linking_accuracy']:8.4f}")
    print(f"most-frequent-entity       {mfe:8.4f}")
    print(f"gold candidate recall      {report['gold_recall']:8.4f}")
    delta = report["linking_accuracy"] - mfe
    print(f"typing minus prior         {delta:+8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
