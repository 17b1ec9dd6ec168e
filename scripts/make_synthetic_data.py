#!/usr/bin/env python3
"""Generate the synthetic linking corpus used by the benchmark.

Writes four files into --out: train_articles.txt, eval_articles.txt,
prior_articles.txt and categories.tsv.  The corpus is constructed so
that every test mention-entity pair is unseen in training and the
anchor-count prior favors the gold entity for only a minority of test
mentions.
"""

import argparse

from typelink.synthetic import BenchmarkSpec, write_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--n-categories", type=int, default=BenchmarkSpec.n_categories)
    parser.add_argument("--train-sentences", type=int, default=BenchmarkSpec.n_train_sentences)
    parser.add_argument("--test-examples", type=int, default=BenchmarkSpec.n_test)
    parser.add_argument("--words-per-category", type=int, default=BenchmarkSpec.words_per_category)
    parser.add_argument("--distractor-shift", type=int, default=BenchmarkSpec.distractor_shift)
    parser.add_argument("--seed", type=int, default=BenchmarkSpec.seed)
    args = parser.parse_args()
    try:
        spec = BenchmarkSpec(n_categories=args.n_categories,
                             n_train_sentences=args.train_sentences,
                             n_test=args.test_examples,
                             words_per_category=args.words_per_category,
                             distractor_shift=args.distractor_shift,
                             seed=args.seed)
    except ValueError as err:
        parser.error(str(err))
    paths = write_benchmark(args.out, spec)
    print(f"wrote corpus for {spec.n_categories} categories, "
          f"{spec.n_train_sentences} train sentences, {spec.n_test} test examples")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    print(f"expected most-frequent-entity accuracy: {spec.expected_mfe_accuracy:.2f}")


if __name__ == "__main__":
    main()
