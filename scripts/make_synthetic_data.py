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

# Each sizing flag and the BenchmarkSpec field it sets.
FIELDS = {"--n-categories": "n_categories", "--train-sentences": "n_train_sentences",
          "--test-examples": "n_test", "--words-per-category": "words_per_category",
          "--distractor-shift": "distractor_shift", "--seed": "seed"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    for flag, field in FIELDS.items():
        parser.add_argument(flag, type=int, default=getattr(BenchmarkSpec, field))
    args = parser.parse_args()
    try:
        spec = BenchmarkSpec(**{field: getattr(args, flag[2:].replace("-", "_"))
                                for flag, field in FIELDS.items()})
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
