"""The equivalence oracle: small pipelines write the bytes recorded in oracle_digests.json.

A refactor that claims "the same bytes from less code" is proven when
every artifact hashes as before.  This runs small pipelines and a
regularized `train` and compares the sha256 of every output file with the
committed digests:

* ``synthetic``: the `small_corpus` corpus at the `pipeline_argv` defaults;
* ``synthetic_sentence_only_logodds``: the same with
  ``--context-mode sentence_only --scoring-mode logodds``;
* ``text_heavy_smoke``: a `perfbench/corpus.py` corpus at the benchmark's
  smoke sizes, whose articles carry malformed links, with the text_heavy
  workload's model flags;
* ``text_heavy_casefold_mean_window50``: the same corpus and flags with
  ``--case-fold --scoring-mode mean --context-mode sentence_plus_window50
  --backoff-min-cats 0``;
* ``train_l2_dev``: ``train --l2-penalty 0.01 --dev-mentions`` on the
  ``synthetic`` run's mentions;
* ``synthetic_standalone_eval``: ``link`` and then ``eval --model --prior
  --per-category --typing-threshold 0.3`` as separate commands on the
  ``synthetic`` run's files, so eval reads its posteriors' inputs from
  files instead of taking them from link in memory;
* ``synthetic_corpus``, ``train_wide_smoke_corpus`` and
  ``train_wide_full_corpus``: the four files `typelink.synthetic` writes
  for the `small_corpus` spec and for train_wide's smoke and full presets
  at seed 1, so the generator's bytes are pinned apart from what the
  pipeline makes of them.

The bits depend on numpy and libm (``exp``, ``log1p``), so the file also
records the Python and numpy versions the digests were made with.  A
change that moves an artifact on purpose regenerates the file with

    PYTHONPATH=src python tests/test_oracle.py

which prints ``moved: run/file`` for each digest that differs from the
file it replaces, before it rewrites it.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

from typelink.cli import main
from typelink.synthetic import write_benchmark

from conftest import SMALL_CORPUS_SPEC, pipeline_argv

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "oracle_digests.json"
PIPELINE_FILES = ("prior.tsv", "eval_mentions_raw.jsonl", "vocab.txt", "train_mentions.jsonl",
                  "eval_mentions.jsonl", "model.json", "predictions.jsonl", "report.json")
SMOKE_SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import SMOKE_CORPUS, WORKLOADS  # noqa: E402
from corpus import CorpusSpec, write_corpus  # noqa: E402


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _run(argv: list) -> str:
    """Run one command; returns its stderr, and fails with it on a non-zero exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv[0], err.getvalue())
    return err.getvalue()


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _corpus_digests(paths: dict) -> dict:
    return {pathlib.Path(path).name: _sha256(pathlib.Path(path)) for path in paths.values()}


def run_all(small_paths: dict, root: pathlib.Path) -> tuple[dict, str]:
    """The digest of every output, by run and file name, and the stderr of the
    text_heavy run (its diagnostics)."""
    runs = {}
    synthetic = root / "synthetic"
    _run(pipeline_argv(small_paths, synthetic))
    runs["synthetic"] = synthetic
    sentence_only = root / "synthetic_sentence_only_logodds"
    _run(pipeline_argv(small_paths, sentence_only, **{"--context-mode": "sentence_only",
                                                      "--scoring-mode": "logodds"}))
    runs[sentence_only.name] = sentence_only

    corpus = write_corpus(str(root / "text_heavy_corpus"),
                          CorpusSpec(seed=SMOKE_SEED, **SMOKE_CORPUS))
    text_heavy_argv = ["pipeline", "--articles", corpus["train_articles"],
                       "--eval-articles", corpus["eval_articles"],
                       "--prior-articles", corpus["prior_articles"],
                       "--categories", corpus["categories"],
                       *WORKLOADS["text_heavy"].model_flags]
    text_heavy = root / "text_heavy_smoke"
    stderr = _run([*text_heavy_argv, "--workdir", str(text_heavy)])
    runs[text_heavy.name] = text_heavy
    options = root / "text_heavy_casefold_mean_window50"
    _run([*text_heavy_argv, "--workdir", str(options), "--case-fold", "--scoring-mode", "mean",
          "--context-mode", "sentence_plus_window50", "--backoff-min-cats", "0"])
    runs[options.name] = options

    digests = {name: {f: _sha256(workdir / f) for f in PIPELINE_FILES}
               for name, workdir in runs.items()}
    model = root / "train_l2_dev.json"
    _run(["train", "--mentions", str(synthetic / "train_mentions.jsonl"),
          "--vocab", str(synthetic / "vocab.txt"),
          "--dev-mentions", str(synthetic / "eval_mentions.jsonl"),
          "--l2-penalty", "0.01", "--model", str(model),
          "--feature-dim", "4096", "--epochs", "3", "--seed", "13", "--quiet"])
    digests["train_l2_dev"] = {"model.json": _sha256(model)}

    standalone = root / "synthetic_standalone_eval"
    standalone.mkdir()
    model, prior = str(synthetic / "model.json"), str(synthetic / "prior.tsv")
    mentions = str(synthetic / "eval_mentions.jsonl")
    predictions, report = standalone / "predictions.jsonl", standalone / "report.json"
    _run(["link", "--mentions", mentions, "--model", model, "--prior", prior,
          "--categories", small_paths["categories"], "--predictions", str(predictions),
          "--quiet"])
    _run(["eval", "--mentions", mentions, "--predictions", str(predictions),
          "--model", model, "--prior", prior, "--report", str(report),
          "--per-category", "--typing-threshold", "0.3", "--quiet"])
    digests[standalone.name] = {f.name: _sha256(f) for f in (predictions, report)}

    digests["synthetic_corpus"] = _corpus_digests(small_paths)
    for preset in ("smoke", "full"):
        name = f"train_wide_{preset}_corpus"
        paths = WORKLOADS["train_wide"].make_corpus(str(root / name), SMOKE_SEED, preset)
        digests[name] = _corpus_digests(paths)
    return digests, stderr


def moved(expected: dict, digests: dict) -> list:
    """``run/file`` of each digest that differs between two digest dicts, or is in one only."""
    return sorted(f"{run}/{name}"
                  for run in expected.keys() | digests.keys()
                  for name in expected.get(run, {}).keys() | digests.get(run, {}).keys()
                  if expected.get(run, {}).get(name) != digests.get(run, {}).get(name))


def test_outputs_hash_as_recorded(small_corpus, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests, stderr = run_all(small_corpus[1], tmp_path)
    # The perfbench corpus is in the oracle for its malformed links.
    assert "malformed_link" in stderr or "unclosed_link" in stderr, stderr
    differing = moved(recorded["digests"], digests)
    assert not differing, (
        f"sha256 differs from {DIGESTS.name} for: {', '.join(differing)}; "
        f"recorded under {recorded['versions']}, run under {versions()}. "
        f"If the change is meant, regenerate with: PYTHONPATH=src python tests/test_oracle.py")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        small = write_benchmark(str(pathlib.Path(tmp) / "small_corpus"), SMALL_CORPUS_SPEC)
        digests, _ = run_all(small, pathlib.Path(tmp))
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name in moved(recorded.get("digests", {}), digests):
        print(f"moved: {name}")
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests}, indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
