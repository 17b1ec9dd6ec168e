import pytest

from typelink.synthetic import BenchmarkSpec, write_benchmark

SMALL_CORPUS_SPEC = BenchmarkSpec(n_train_sentences=400, n_test=60, seed=2)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A reduced synthetic corpus shared by CLI-level tests."""
    root = tmp_path_factory.mktemp("small_corpus")
    paths = write_benchmark(str(root), SMALL_CORPUS_SPEC)
    return SMALL_CORPUS_SPEC, paths


def pipeline_argv(paths, workdir, **overrides):
    """argv for the pipeline subcommand on a generated corpus."""
    opts = {
        "--articles": paths["train_articles"],
        "--eval-articles": paths["eval_articles"],
        "--prior-articles": paths["prior_articles"],
        "--categories": paths["categories"],
        "--workdir": str(workdir),
        "--feature-dim": "4096",
        "--epochs": "3",
        "--seed": "13",
    }
    opts.update(overrides)
    argv = ["pipeline", "--quiet"]
    for key, value in opts.items():
        if value is None:
            continue
        argv.extend([key, str(value)])
    return argv
