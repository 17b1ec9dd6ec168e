#!/usr/bin/env python3
"""A fixed task whose time tells how fast the machine runs at the moment.

    python3 perfbench/reference.py

run.py starts this in a fresh process right before every iteration of a
workload's timed commands, and reports their wall and CPU time as
multiples of this task's (``wall_rel``, ``cpu_rel``).  On a shared host a
neighbour can slow every instruction by a third for seconds to minutes;
the task and the commands right after it see the same slowdown, so the
ratio keeps the cost of the program's work and drops most of the
neighbour's.

The task does in small what the pipeline does: start an interpreter and
import numpy and scipy, hash token strings with blake2b into counts, run
small dense numpy updates, and round-trip a float matrix through JSON.  It
does not use typelink, so no change to the program moves it.  Changing
this file changes the scale of wall_rel and cpu_rel: keep it fixed, or
measure the parent again with the new one.
"""

import json
from collections import Counter
from hashlib import blake2b

import numpy as np
from scipy.special import expit


def hashed_counts(n_tokens: int, dim: int) -> Counter:
    tokens = [f"w{i % 997}_{i % 13}" for i in range(n_tokens)]
    counts: Counter = Counter()
    for left, right in zip(tokens, tokens[1:]):
        digest = blake2b(f"{left} {right}".encode(), digest_size=8).digest()
        counts[int.from_bytes(digest, "little") % dim] += 1
    return counts


def dense_updates(rows: int, cols: int, steps: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    weights = np.zeros((rows, cols))
    x = rng.random((steps, cols))
    for step in range(steps):
        grad = expit(weights @ x[step]) - 0.5
        weights -= 0.1 * np.outer(grad, x[step])
    return weights


def main() -> int:
    counts = hashed_counts(60_000, 8192)
    weights = dense_updates(256, 1024, 100)
    restored = np.array(json.loads(json.dumps(weights.tolist())))
    return 0 if len(counts) and restored.shape == weights.shape else 1


if __name__ == "__main__":
    raise SystemExit(main())
